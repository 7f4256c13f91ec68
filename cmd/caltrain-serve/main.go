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
// Every serving knob is one field of serve.Config, reachable two ways:
// its flag, or its field in a -deployment config.json. The flags are an
// overlay on serve.Config — each binds straight into the field beside it
// in the table — so flags and file meet in one value, take the same
// path (Config.Deployment → Deployment.Build) and the same validation:
// a negative bound is rejected at startup, 0 means the default, unknown
// file fields are rejected. A -deployment file declares the whole
// topology, so every flag of this table conflicts with it. The default
// column is the flag's; an omitted file field means the same except
// where noted.
//
//	flag                   config field                       default  meaning
//	-backend               backend.kind                       flat     linear (reference scan), flat (exact, contiguous),
//	                                                                   ivf (approximate inverted file), ivfpq (product-
//	                                                                   quantized ivf: -pq-m code bytes per entry, ~4·dim/M smaller)
//	-nlist                 backend.nlist                      0        ivf/ivfpq lists per label (0 = auto ≈√n)
//	-nprobe                backend.nprobe                     0        ivf/ivfpq lists probed per query (0 = auto)
//	-iters                 backend.iters                      0        k-means iterations (0 = default)
//	-seed                  backend.seed                       42       training seed (the file's default is 0)
//	-pq-m                  backend.m                          0        ivfpq subquantizers; must divide the dim (0 = auto)
//	-max-body              limits.max_body_bytes              8 MiB    request body limit (0 = default)
//	-max-k                 limits.max_k                       1024     per-query neighbour limit (0 = default)
//	-max-batch             limits.max_batch                   256      queries per batch request (0 = default)
//	-latency-buckets       limits.latency_buckets             sub-ms   /stats histogram bounds: 100us,1ms,… / ["100us","1ms",…]
//	-wal                   wal.dir                            (none)   write-ahead log directory; turns on POST /v1/ingest
//	-fsync                 wal.fsync                          always   always, interval, or never
//	-fsync-every           wal.fsync_every                    50ms     flush period under -fsync interval
//	-wal-segment-bytes     wal.segment_bytes                  64 MiB   segment rotation size
//	-drift-threshold       wal.drift_threshold                0.25     appended fraction that triggers a background retrain
//	                                                                   + hot-swap of ivf/ivfpq (negative disables; 0 is rejected)
//	-repl                  replication: {}                    off      serve /v1/repl/* and run the sync state machine (needs a wal)
//	-repl-peer             replication.peer                   (none)   sync source URL; implies -repl
//	-request-log           observability.request_log          false    one structured stderr line per request
//	-slow-query-threshold  observability.slow_query_threshold 0 (off)  warn about slower requests even without the request log
//	-trace-sample-rate     observability.tracing.sample_rate  1        head-sampling probability in [0,1]
//	-trace-store           observability.tracing.store        0        traces kept for /v1/debug/traces (0 = default, <0 = none)
//	-trace-slow            observability.tracing.slow_always  0 (off)  always keep traces slower than this
//
// File only: shards, replicas_per_shard (with "shards" above 1 the one
// daemon serves the whole in-process sharded topology — the
// caltrain-router shape without the per-shard processes),
// volatile_writes, observability.metrics, observability.debug_addr.
//
//	caltrain-serve -db linkage.db -deployment deploy.json
//	{"backend": {"kind": "ivf", "nprobe": 8}, "shards": 4, "volatile_writes": true}
//
// Process flags say where the daemon runs, not what it serves; they have
// no config field, and all compose with -deployment: -db (linkage
// database), -addr (listen address), -grace (shutdown drain timeout),
// -debug-addr (pprof/expvar/trace sidecar — never the public address;
// wins over observability.debug_addr), -snapshot-every (periodically
// persist the database to -db and truncate the WAL; a graceful shutdown
// always does), -deployment.
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
// the loaded database. IVF backends track drift and retrain + hot-swap
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

// processFlags say where the process runs, not what it serves — the
// only flags that are not bound into serve.Config. The value tells
// whether the flag composes with -deployment; the rest conflict with it
// like every serving knob, so a future flag conflicts by default
// instead of slipping past a stale deny-list.
var processFlags = map[string]bool{
	"db": true, "addr": true, "grace": true, "snapshot-every": true, "deployment": true, "debug-addr": true,
}

// options is the parsed command line: the process flags, and every
// serving knob bound straight into cfg — the same serve.Config a
// -deployment file parses into.
type options struct {
	db, addr, deployment, debugAddr string
	grace, snapshotEvery            time.Duration

	cfg serve.Config
}

func parseFlags(args []string) (*flag.FlagSet, *options, error) {
	fs := flag.NewFlagSet("caltrain-serve", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.db, "db", "linkage.db", "linkage database path")
	fs.StringVar(&o.addr, "addr", ":8791", "listen address")
	fs.DurationVar(&o.grace, "grace", 10*time.Second, "shutdown drain timeout")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof, expvar, and /v1/debug/traces on this sidecar host:port (empty = no debug listener; never the public address)")
	fs.DurationVar(&o.snapshotEvery, "snapshot-every", 0, "periodically persist the database to -db and truncate the WAL (0 = only on graceful shutdown)")
	fs.StringVar(&o.deployment, "deployment", "", "deployment config file (JSON): backend, sharding, durability, limits in one document — conflicts with the per-knob flags")

	drift := ingest.DefaultDriftThreshold
	o.cfg = serve.Config{
		Limits:        &serve.LimitsConfig{},
		Observability: &serve.ObservabilityConfig{},
		WAL:           &serve.WALConfig{FsyncEvery: serve.Duration(50 * time.Millisecond), DriftThreshold: &drift},
		Replication:   &serve.ReplicationConfig{},
	}
	c := &o.cfg
	fs.StringVar(&c.Backend.Kind, "backend", "flat", "index backend: linear, flat, ivf, or ivfpq")
	serve.BindBackendFlags(fs, &c.Backend)
	serve.BindLimitFlags(fs, c.Limits, "comma-separated /stats latency bucket bounds as durations (e.g. 100us,1ms,10ms); empty = sub-ms defaults")
	fs.IntVar(&c.Limits.MaxK, "max-k", fingerprint.DefaultMaxK, "per-query neighbour count limit (0 = default)")
	serve.BindObservabilityFlags(fs, c.Observability)

	fs.StringVar(&c.WAL.Dir, "wal", "", "write-ahead log directory; enables POST /ingest (empty = read-only daemon)")
	fs.StringVar(&c.WAL.Fsync, "fsync", "always", "WAL fsync policy: always, interval, or never")
	fs.Var(&c.WAL.FsyncEvery, "fsync-every", "flush period for -fsync interval (0 = default)")
	fs.Int64Var(&c.WAL.SegmentBytes, "wal-segment-bytes", 64<<20, "rotate WAL segments past this size (0 = default)")
	fs.Float64Var(c.WAL.DriftThreshold, "drift-threshold", drift, "appended fraction that triggers a background IVF retrain + hot-swap (negative disables)")

	repl := fs.Bool("repl", false, "enable replication: serve the /v1/repl/* snapshot+WAL source endpoints and run the sync state machine (needs -wal)")
	fs.StringVar(&c.Replication.Peer, "repl-peer", "", "sync source base URL (another replica of the same shard); implies -repl — the daemon syncs from the peer at startup, and a missing -db file is bootstrapped from its snapshot")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	// An optional block's presence is itself a setting (a wal block turns
	// the write path on), so each survives only when one of its flags was
	// given — exactly as a config file would spell it.
	if serve.FlagGiven(fs, "wal", "fsync", "fsync-every", "wal-segment-bytes", "drift-threshold") == "" {
		c.WAL = nil
	}
	if !*repl && c.Replication.Peer == "" {
		c.Replication = nil
	}
	if serve.FlagGiven(fs, "trace-sample-rate", "trace-store", "trace-slow") == "" {
		c.Observability.Trace = nil
	}
	return fs, o, nil
}

func run(parent context.Context, args []string, out io.Writer) error {
	fs, o, err := parseFlags(args)
	if err != nil {
		return err
	}
	cfg, err := serve.ResolveConfig(fs, o.cfg, o.deployment, processFlags)
	if err != nil {
		return err
	}
	if f := serve.FlagGiven(fs, "fsync", "fsync-every", "wal-segment-bytes", "drift-threshold", "repl", "repl-peer"); f != "" && serve.FlagGiven(fs, "wal") == "" {
		return fmt.Errorf("-%s needs -wal: the read-only daemon has no write path", f)
	}

	// Flags or file, the topology is one serve.Config by now, and this is
	// the one place it becomes a Deployment — validated once, for both.
	// Everything downstream — service or router, write path, retrain
	// hook — assembles from it. The config resolves before the database
	// loads so a replication peer declared there can bootstrap a missing
	// -db file.
	dep, err := cfg.Deployment()
	if err != nil {
		return err
	}
	if o.snapshotEvery > 0 {
		if dep.WAL == nil {
			return fmt.Errorf("-snapshot-every needs -wal (or a wal block in the deployment config): the read-only topology has no write path")
		}
		if dep.Shards > 1 {
			return fmt.Errorf("-snapshot-every requires a single-service deployment: sharded stores compact per shard, not into -db")
		}
	}
	if o.deployment != "" {
		fmt.Fprintf(out, "deployment config: %s\n", o.deployment)
	}
	var peer string
	if dep.Replication != nil {
		peer = dep.Replication.Peer
	}

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
		policy, _ := ingest.ParseSyncPolicy(dep.WAL.Fsync) // Build validated it
		fmt.Fprintf(out, "wal: %s (fsync %s), replayed %d entries, %d total\n",
			dep.WAL.Dir, policy, store.Replayed(), db.Len())
	} else if stores := built.Stores(); len(stores) > 0 {
		fmt.Fprintf(out, "wal: %s, %d shard-replica stores\n", dep.WAL.Dir, len(stores))
	}
	if dep.Replication != nil {
		if dep.Replication.Peer != "" {
			fmt.Fprintf(out, "replication: enabled, peer %s\n", dep.Replication.Peer)
		} else {
			fmt.Fprintln(out, "replication: enabled (source-only until nudged)")
		}
	}

	ctx, stop := signal.NotifyContext(parent, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var snapDone chan struct{}
	if store != nil && o.snapshotEvery > 0 {
		snapDone = make(chan struct{})
		go func() {
			defer close(snapDone)
			t := time.NewTicker(o.snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					// Ask for the store each cycle: under replication a
					// full resync swaps it (and the database) out.
					st := built.Store()
					if st == nil {
						continue
					}
					if err := st.Snapshot(o.db); err != nil {
						fmt.Fprintf(out, "snapshot: %v\n", err)
						continue
					}
					fmt.Fprintf(out, "snapshot: %d entries → %s, wal truncated\n", svc.Searcher().Len(), o.db)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

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
	if err := built.Serve(ctx, l, o.grace); err != nil {
		return err
	}
	if store != nil {
		// Let the periodic snapshotter finish its current cycle before
		// the final compaction — ctx is cancelled, so it exits promptly.
		if snapDone != nil {
			<-snapDone
		}
		// Graceful shutdown compacts: persist the database (and what the
		// deployment keeps beside it) so the restart loads a snapshot
		// instead of replaying the whole log. The store is
		// re-fetched: under replication a full resync swaps it out.
		if st := built.Store(); st != nil {
			if err := st.Snapshot(o.db); err != nil {
				return err
			}
		}
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
