// Command caltrain-serve is the production accountability query daemon:
// it loads a linkage database produced by caltrain-train, builds (or
// loads) a nearest-neighbour index over it, and serves single and batch
// fingerprint queries over HTTP until SIGTERM/SIGINT, then drains
// in-flight requests and exits.
//
//	caltrain-serve -db linkage.db -addr :8791 -backend ivf -nprobe 8
//
// Endpoints (the versioned wire protocol, the only spelling):
//
//	POST /v1/query        one misprediction fingerprint → k nearest neighbours
//	POST /v1/query/batch  many queries in one round trip, per-query errors
//	POST /v1/ingest       durable batch writes (with -wal; 501 without)
//	GET  /v1/healthz      liveness
//	GET  /v1/stats        entry count, index kind, query counters, latency histogram
//	GET  /v1/meta         server version, backend kind, capabilities, build info
//	GET  /v1/metrics      Prometheus text-format exposition of the same counters
//
// Every non-200 response carries the structured error envelope
// {code, error, details, request_id}.
//
// # Configuration
//
// Every serving knob is one field of serve.Config, set by its flag —
// bound from the field's tags by serve.BindFlags — or by its key in a
// -deployment config.json; both take serve.ResolveDeployment → Build
// and its one validation, whose refusals name the flag or key written.
// A block is present if and only if one of its keys is written: -fsync
// alone is refused as "-fsync needs -wal", and so is -wal "" (omit -wal
// for a read-only daemon). A knob flag beside -deployment is an error.
// README's knob table and -h list the flags, their config keys and
// defaults.
//
// File only, each for the reason at its field: shards,
// replicas_per_shard (with "shards" above 1 the one daemon serves the
// whole in-process sharded topology), volatile_writes,
// observability.metrics, observability.debug_addr.
//
//	caltrain-serve -db linkage.db -deployment deploy.json
//	{"backend": {"kind": "ivf", "nprobe": 8}, "shards": 4, "volatile_writes": true}
//
// Process flags (-db, -addr, -grace, -debug-addr, -deployment) say
// where the daemon runs, not what it serves: they have no config key
// and compose with -deployment; -debug-addr wins over
// observability.debug_addr.
//
// # Behaviour behind the knobs
//
// Observability: every request is tagged with an X-Request-Id (the
// inbound header when present, generated otherwise), echoed on the
// response, in error envelopes, and in the request log with per-stage
// timings. Every request is also recorded as a span tree under one
// trace — joined across processes via the W3C traceparent header —
// head-sampled into a bounded in-memory store, with slow and 5xx traces
// always kept; the debug sidecar serves GET /v1/debug/traces[/{id}].
//
// Online ingest: with a wal, POST /ingest batches are CRC-framed into the
// write-ahead log (fsynced per the policy) before they are applied to
// the database and appended into the serving index, so an acknowledged
// batch survives SIGKILL — on restart the daemon replays the log over
// the loaded database, and -snapshot-every (wal.snapshot_every) and a
// graceful shutdown compact the log into -db, so a restart replays only
// the tail. IVF backends track drift and retrain + hot-swap
// in the background past the drift threshold; a snapshot writes the
// retrained index to the kept file (below), or drops the file if
// entries were appended since.
//
// Kept index: an ivf or ivfpq daemon keeps its trained index as
// index-<kind>-<digest>.ctix (the digest of the training knobs and
// nprobe) in the wal directory, or without -wal beside -db
// (linkage.db.index-<kind>-<digest>.ctix). A restart over the same -db
// and knobs loads it and catches up what -db holds beyond it, counted as
// drift, instead of training; it trains and writes the file again when
// the file is missing or refused — the startup line says which.
//
// Replication makes a wal daemon a self-healing replica: it serves
// GET /v1/repl/snapshot and GET /v1/repl/wal so peers can bootstrap and
// catch up from it, and runs the sync state machine (cold → snapshot →
// catchup → live) that POST /v1/repl/sync — and the router's
// anti-entropy repair loop — drive. With a peer the daemon syncs from it
// at startup before accepting external writes, and a missing -db file is
// fetched from the peer as a snapshot, so a brand-new empty replica
// joins with nothing but a peer URL.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"caltrain/internal/cluster"
	"caltrain/internal/fingerprint"
	"caltrain/internal/ingest"
	"caltrain/internal/obs"
	"caltrain/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caltrain-serve:", err)
		os.Exit(1)
	}
}

// processFlags say where the process runs, not what it serves: the only
// flags not bound into serve.Config, and the only ones that compose with
// -deployment, so a future flag conflicts with it by default.
var processFlags = map[string]bool{
	"db": true, "addr": true, "grace": true, "deployment": true, "debug-addr": true,
}

// options is the parsed command line: the process flags, and every
// serving knob bound straight into cfg — the same serve.Config a
// -deployment file parses into.
type options struct {
	db, addr, deployment, debugAddr string
	grace                           time.Duration

	cfg serve.Config
}

func parseFlags(args []string) (*flag.FlagSet, *options, error) {
	fs := flag.NewFlagSet("caltrain-serve", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.db, "db", "linkage.db", "linkage database path")
	fs.StringVar(&o.addr, "addr", ":8791", "listen address")
	fs.DurationVar(&o.grace, "grace", 10*time.Second, "shutdown drain timeout")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof, expvar, and /v1/debug/traces on this sidecar host:port (empty = no debug listener; never the public address)")
	fs.StringVar(&o.deployment, "deployment", "", "deployment config file (JSON): backend, sharding, durability, limits in one document — conflicts with the per-knob flags")

	// The knobs' flag defaults: BindFlags takes each from its field here.
	one, drift := 1.0, ingest.DefaultDriftThreshold
	o.cfg = serve.Config{
		Backend: serve.BackendConfig{Kind: "flat", Seed: serve.FlagSeed},
		WAL: &serve.WALConfig{Fsync: "always", FsyncEvery: serve.Duration(50 * time.Millisecond),
			SegmentBytes: 64 << 20, DriftThreshold: &drift},
		Limits: &serve.LimitsConfig{MaxBodyBytes: fingerprint.DefaultMaxBodyBytes,
			MaxK: fingerprint.DefaultMaxK, MaxBatch: fingerprint.DefaultMaxBatch},
		Observability: &serve.ObservabilityConfig{Trace: &serve.TraceConfig{SampleRate: &one}},
		Replication:   &serve.ReplicationConfig{},
	}
	c := &o.cfg
	// By hand: caltrain-shard spells backend.kind -index, with no default.
	fs.StringVar(&c.Backend.Kind, "backend", c.Backend.Kind, "index backend: flat, ivf, or ivfpq")
	// By hand: limits.max_k is the daemon's alone; the router refuses it.
	fs.IntVar(&c.Limits.MaxK, "max-k", c.Limits.MaxK, "per-query neighbour count limit (0 = default)")
	return fs, o, serve.BindFlags(fs, c)(args)
}

func run(parent context.Context, args []string, out io.Writer) error {
	fs, o, err := parseFlags(args)
	if err != nil {
		return err
	}
	// Flags or file, this is the one place the topology becomes a
	// Deployment — validated once, for both. Everything downstream —
	// service or router, write path, compaction, retrain hook —
	// assembles from it. It resolves before the database loads so a
	// replication peer declared there can bootstrap a missing -db file.
	dep, err := serve.ResolveDeployment(fs, o.cfg, o.deployment, processFlags)
	if err != nil {
		return err
	}
	if dep.Topology != nil {
		return fmt.Errorf("serve: topology is the router's block (caltrain-router -deployment); a daemon config declares backend/wal/replication")
	}
	if o.deployment != "" {
		fmt.Fprintf(out, "deployment config: %s\n", o.deployment)
	}
	peer := cmp.Or(dep.Replication, &serve.ReplicationConfig{}).Peer

	var db *fingerprint.DB
	loadStart := time.Now()
	dbf, err := os.Open(o.db)
	switch {
	case err == nil:
		db, err = fingerprint.LoadDB(dbf)
		dbf.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "linkage database: %d entries, fingerprint dim %d\n", db.Len(), db.Dim())
	case os.IsNotExist(err) && peer != "":
		// A brand-new replica: no local database yet, but a peer to copy.
		// Its snapshot seeds the database; the sync state machine catches
		// up the WAL tail once the topology is built and serving.
		var seq uint64
		db, seq, err = cluster.FetchSnapshot(parent, fingerprint.NewClient(peer, nil))
		if err != nil {
			return fmt.Errorf("bootstrap from %s: %w", peer, err)
		}
		fmt.Fprintf(out, "bootstrap: %s missing; fetched snapshot from %s (%d entries, fingerprint dim %d, seq %d)\n",
			o.db, peer, db.Len(), db.Dim(), seq)
	default:
		return err
	}
	loadTook, loadedEntries := time.Since(loadStart), db.Len()

	// The index is built between here and the end of dep.Build: loaded
	// from the file the deployment keeps or trained, then caught up with
	// the WAL.
	buildStart := time.Now()
	dep.DBFile = o.db

	// Observability: -debug-addr is a process flag, so it composes with
	// (and wins over) the config file's debug_addr. Request and
	// slow-query logs go to stderr, keeping stdout for the daemon's own
	// startup lines.
	dep.Observability.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	if o.debugAddr != "" {
		dep.Observability.DebugAddr = o.debugAddr
	}

	// Build trains the index (if any) and replays the WAL, so the first
	// query sees every acknowledged entry.
	built, err := dep.Build(db)
	if err != nil {
		return err
	}
	buildTook := time.Since(buildStart)
	setup := fmt.Sprintf("loaded %d entries in %v, %s in %v", loadedEntries,
		loadTook.Round(time.Millisecond), built.IndexOrigin(), buildTook.Round(time.Millisecond))
	svc := built.Service()
	var desc string
	var store *ingest.Store
	if svc != nil {
		searcher := svc.Searcher()
		desc = "index " + searcher.Kind()
		if p, ok := searcher.(interface{ Nprobe() int }); ok {
			setup += fmt.Sprintf(" (nprobe %d)", p.Nprobe())
		}
		store = built.Store()
		svc.MustRegisterMetrics(
			obs.GaugeFunc("caltrain_startup_load_seconds",
				"Seconds the daemon took to load (or bootstrap) the linkage database at startup.",
				loadTook.Seconds),
			obs.GaugeFunc("caltrain_index_build_seconds",
				"Seconds the serving index last took to build: at startup, training it or loading the index file the daemon keeps (in its log directory, or beside -db) and replaying the WAL into it; after that, each drift retrain.",
				func() float64 {
					if d := built.LastRetrain(); d > 0 {
						return d.Seconds()
					}
					return buildTook.Seconds()
				}),
		)
	} else {
		desc = fmt.Sprintf("%s-sharded router, %d shards", cmp.Or(dep.Backend.Kind, "flat"), dep.Shards)
	}
	fmt.Fprintln(out, setup)
	if store != nil {
		fmt.Fprintf(out, "wal: %s (fsync %s), replayed %d entries, %d total\n",
			dep.WAL.Dir, cmp.Or(dep.WAL.Fsync, "always"), store.Replayed(), db.Len())
	} else if stores := built.Stores(); len(stores) > 0 {
		fmt.Fprintf(out, "wal: %s, %d shard-replica stores\n", dep.WAL.Dir, len(stores))
	}
	if r := dep.Replication; r != nil {
		fmt.Fprintf(out, "replication: enabled, peer %s\n", cmp.Or(r.Peer, "none (source-only until nudged)"))
	}

	ctx, stop := signal.NotifyContext(parent, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if da := dep.Observability.DebugAddr; da != "" {
		dl, err := serve.ListenDebug(da, built.TraceStore())
		if err != nil {
			return err
		}
		defer dl.Close()
		fmt.Fprintf(out, "debug listener (pprof, expvar, traces) on %s\n", dl.Addr())
	}

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	endpoints := "POST /v1/query, POST /v1/query/batch, GET /v1/healthz, GET /v1/stats, GET /v1/meta"
	if dep.WAL != nil || dep.VolatileWrites {
		endpoints = "POST /v1/query, POST /v1/query/batch, POST /v1/ingest, GET /v1/healthz, GET /v1/stats, GET /v1/meta"
	}
	fmt.Fprintf(out, "serving accountability queries on %s (%s; %s)\n",
		l.Addr(), desc, endpoints)
	// Serve compacts a single durable store into -db after the drain
	// (and every wal.snapshot_every before it).
	if err := built.Serve(ctx, l, o.grace); err != nil {
		return err
	}
	// Close flushes every write path and waits out background retrains,
	// volatile ones included. Sharded write paths have no single -db file
	// to compact into: their per-replica WALs replay on restart.
	if err := built.Close(); err != nil {
		return err
	}
	if store != nil {
		fmt.Fprintf(out, "final snapshot: %d entries → %s\n", svc.Searcher().Len(), o.db)
	} else if stores := built.Stores(); len(stores) > 0 {
		fmt.Fprintf(out, "closed %d shard write paths (wal retained for replay)\n", len(stores))
	}
	fmt.Fprintln(out, "drained, bye")
	return nil
}
