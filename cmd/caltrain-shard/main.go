// Command caltrain-shard splits one linkage database into per-label
// shards for distributed accountability serving: it writes N per-shard
// databases, optionally a trained index per shard, and the versioned
// shard map every daemon and the router load so label ownership always
// agrees.
//
//	caltrain-shard -db linkage.db -out shards/ -shards 4
//	caltrain-shard -db linkage.db -out shards/ -shards 4 -strategy range -index ivf
//
// Outputs in -out:
//
//	shard-000.db … shard-00N.db   per-shard linkage databases
//	shard-000.db.index-<kind>-<digest>.ctix …
//	                              per-shard trainings (with -index ivf|ivfpq)
//	shardmap.ctsm                 the label→shard assignment
//
// Each shard is then served by an ordinary caltrain-serve daemon
// (replicas run the same shard files on more hosts), and
// caltrain-router fans client batches out across them. A training is
// kept where caltrain-serve keeps its own (serve.KeptIndexFile), so a
// daemon started with the same -backend and knobs loads it on its first
// start instead of training:
//
//	caltrain-serve  -db shards/shard-000.db -backend ivf -addr :9000
//	caltrain-router -map shards/shardmap.ctsm -shard 0=localhost:9000 …
//
// Strategies (-strategy): "hash" assigns labels by FNV-1a hash —
// stateless and uniform in expectation; "range" splits the observed
// labels into contiguous ranges balanced by entry count, which keeps
// related label IDs colocated.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/ingest"
	"caltrain/internal/serve"
	"caltrain/internal/shard"
)

// MapFileName is the shard-map file caltrain-shard writes into -out and
// caltrain-router loads with -map.
const MapFileName = "shardmap.ctsm"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caltrain-shard:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("caltrain-shard", flag.ContinueOnError)
	var (
		dbPath   = fs.String("db", "linkage.db", "linkage database to split")
		outDir   = fs.String("out", "shards", "output directory")
		nshards  = fs.Int("shards", 4, "number of shards")
		strategy = fs.String("strategy", "hash", "label assignment: hash or range (balanced by entry count)")
		backend  serve.BackendConfig

		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof and expvar on this sidecar host:port while splitting (empty = no debug listener)")
	)
	fs.StringVar(&backend.Kind, "index", "", "also train a per-shard index: ivf or ivfpq (empty: none)")
	serve.BindBackendFlags(fs, &backend)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *debugAddr != "" {
		// Splitting and per-shard index training can run for minutes on a
		// big database; the sidecar makes them profileable like the daemons.
		dl, err := serve.ListenDebug(*debugAddr, nil)
		if err != nil {
			return err
		}
		defer dl.Close()
		fmt.Fprintf(out, "debug listener (pprof, expvar) on %s\n", dl.Addr())
	}
	if *nshards < 1 {
		return fmt.Errorf("-shards must be positive, got %d", *nshards)
	}
	// Only backends that train have a training to keep (the linear scan
	// and flat build from the database in one pass).
	if backend.Kind != "" {
		if _, ok := serve.KeptIndexFile(filepath.Join(*outDir, shardFile(0)), backend); !ok {
			return fmt.Errorf("-index %s trains nothing to keep (want ivf or ivfpq)", backend.Kind)
		}
	}

	dbf, err := os.Open(*dbPath)
	if err != nil {
		return err
	}
	db, err := fingerprint.LoadDB(dbf)
	dbf.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "linkage database: %d entries, %d labels, fingerprint dim %d\n",
		db.Len(), len(db.Labels()), db.Dim())

	m, err := buildMap(db, *strategy, *nshards)
	if err != nil {
		return err
	}
	parts, err := shard.SplitDB(db, m)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if err := ingest.WriteFile(filepath.Join(*outDir, MapFileName), m.Save); err != nil {
		return err
	}
	for sid, part := range parts {
		dbPath := filepath.Join(*outDir, shardFile(sid))
		if err := ingest.WriteFile(dbPath, part.Save); err != nil {
			return err
		}
		line := fmt.Sprintf("shard %d: %d entries, %d labels → %s", sid, part.Len(), len(part.Labels()), filepath.Base(dbPath))
		// An empty shard has nothing to train on (IVF cannot train on
		// nothing): it is served with -backend flat.
		if backend.Kind != "" && part.Len() > 0 {
			started := time.Now()
			built, err := serve.Deployment{Backend: backend}.Build(part)
			if err != nil {
				return fmt.Errorf("shard %d index: %w", sid, err)
			}
			kept, _ := serve.KeptIndexFile(dbPath, backend)
			if err := serve.SaveIndexFile(kept, built.Service().Searcher()); err != nil {
				return err
			}
			line += fmt.Sprintf(" + %s (trained in %v)", filepath.Base(kept), time.Since(started).Round(time.Millisecond))
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "shard map (%s, %d shards) → %s\n", m.Strategy(), m.NumShards(), filepath.Join(*outDir, MapFileName))
	return nil
}

func buildMap(db *fingerprint.DB, strategy string, nshards int) (*shard.Map, error) {
	switch strategy {
	case "hash":
		return shard.NewHashMap(nshards)
	case "range":
		counts := make(map[int]int)
		for _, y := range db.Labels() {
			counts[y] = len(db.ClassIndex(y))
		}
		return shard.RangeMapForCounts(counts, nshards)
	default:
		return nil, fmt.Errorf("unknown strategy %q (want hash or range)", strategy)
	}
}

// shardFile names shard sid's database, the layout caltrain-serve and
// caltrain-router point at.
func shardFile(sid int) string { return fmt.Sprintf("shard-%03d.db", sid) }
