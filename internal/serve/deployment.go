// Package serve is the declarative serving layer of the accountability
// tier. A Deployment assembles one linkage database into a complete
// serving topology — a single ingest-enabled query service, or a sharded
// scatter-gather router over per-shard services — behind the versioned
// /v1 wire protocol; its BackendConfig names and tunes the
// nearest-neighbour backend. The caltrain facade's Deployment and both
// serving daemons (caltrain-serve, caltrain-router) build through this
// package, so a new backend or topology plugs in at this one seam.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"caltrain/internal/cluster"
	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/ingest"
	"caltrain/internal/obs"
	"caltrain/internal/shard"
)

// maxTraceStore bounds TraceConfig.StoreSize: the trace store
// allocates its ring up front, so an absurd size must fail at startup
// as a config error, not as an allocation panic.
const maxTraceStore = 1 << 20

// options translates the config into the per-handler observability
// options, stamping the component name that request logs carry and the
// deployment-wide tracer.
func (o *ObservabilityConfig) options(component string, tracer *obs.Tracer) fingerprint.Observability {
	opts := fingerprint.Observability{Component: component, Tracer: tracer}
	if o != nil {
		opts.Logger = o.Logger
		opts.RequestLog = o.RequestLog
		opts.SlowQueryThreshold = time.Duration(o.SlowQueryThreshold)
		opts.DisableMetrics = o.Metrics != nil && !*o.Metrics
	}
	return opts
}

// tracer builds the Tracer every handler of a deployment (or a router)
// shares — one store holds an in-process topology's whole span tree. A
// nil Trace block samples every request into a default-sized store, so
// traces are inspectable out of the box; tune (or effectively disable
// with SampleRate 0 and StoreSize -1) via the Trace block.
func (o *ObservabilityConfig) tracer() *obs.Tracer {
	opts := obs.TracerOptions{SampleRate: 1}
	if o != nil && o.Trace != nil {
		if o.Trace.SampleRate != nil {
			opts.SampleRate = *o.Trace.SampleRate
		}
		opts.StoreSize = o.Trace.StoreSize
		opts.SlowAlways = time.Duration(o.Trace.SlowAlways)
	}
	return obs.NewTracer(opts)
}

// validate is the observability part of Deployment.validate, which
// RouterPlan runs on its own. Negative thresholds and unparseable
// listen addresses are rejected rather than silently ignored — an
// operator who wrote one believes it is in effect.
func (o *ObservabilityConfig) validate() error {
	if o == nil {
		return nil
	}
	if o.SlowQueryThreshold < 0 {
		return fmt.Errorf("serve: observability.slow_query_threshold must be non-negative (0 disables the slow-query log), got %s", o.SlowQueryThreshold)
	}
	if o.DebugAddr != "" {
		if _, _, err := net.SplitHostPort(o.DebugAddr); err != nil {
			return fmt.Errorf("serve: observability.debug_addr must be host:port: %w", err)
		}
	}
	if t := o.Trace; t != nil {
		if t.SampleRate != nil && (*t.SampleRate < 0 || *t.SampleRate > 1) {
			return fmt.Errorf("serve: observability.tracing.sample_rate must be in [0, 1], got %v", *t.SampleRate)
		}
		if t.SlowAlways < 0 {
			return fmt.Errorf("serve: observability.tracing.slow_always must be non-negative (0 disables), got %s", t.SlowAlways)
		}
		if t.StoreSize > maxTraceStore {
			return fmt.Errorf("serve: observability.tracing.store must be at most %d traces, got %d", maxTraceStore, t.StoreSize)
		}
	}
	return nil
}

// Deployment declares a complete serving topology over one linkage
// database. The zero value serves a read-only Flat-indexed query
// service; filling fields composes backends, sharding, durability, and
// limits without touching any construction code:
//
//	Deployment{Backend: BackendConfig{Kind: "ivf"}}       // one daemon, approximate
//	Deployment{Shards: 4, VolatileWrites: true}           // in-process sharded router
//	Deployment{WAL: &WALConfig{Dir: d}}                   // durable single daemon
//	Deployment{Shards: 4, ReplicasPerShard: 2, WAL: ...}  // replicated sharded writes
//
// Build assembles it; every topology serves the same versioned /v1 wire
// protocol, so clients cannot tell the shapes apart except through
// GET /v1/meta.
type Deployment struct {
	// Backend selects the index backend; the zero value means flat.
	Backend BackendConfig
	// Shards >1 splits the database by label hash across that many
	// shards behind an in-process scatter-gather router; 0 or 1 serves a
	// single query service.
	Shards int
	// ReplicasPerShard builds that many identical replicas per shard
	// (sharded only; 0 or 1 means one). Replicas make routed writes
	// quorum-able and reads failover-able, at ReplicasPerShard× the
	// memory.
	ReplicasPerShard int
	// WAL enables the durable write path (see WALConfig). Nil with
	// VolatileWrites false builds a read-only deployment.
	WAL *WALConfig
	// DBFile is the file the database was loaded from, if any. A single
	// service without a WAL whose backend trains (ivf, ivfpq) keeps its
	// training beside it (KeptIndexFile) and loads it on the next Build
	// over the same file and knobs; a WAL deployment keeps it in its log
	// directory instead, and a sharded one in each replica's.
	DBFile string
	// VolatileWrites enables a non-durable in-memory write path when WAL
	// is nil: the same ingest.Store a WAL deployment opens, without a
	// log. POST /ingest applies to the database and index, and retrains
	// an approximate backend past the default drift threshold, but every
	// write is lost on restart. Ignored when WAL is set.
	VolatileWrites bool
	// Limits bounds request sizes (body, k, batch) and sets the latency
	// histogram on every query service the deployment builds; nil keeps
	// the defaults.
	Limits *LimitsConfig
	// Observability tunes metrics, request logging, and the debug
	// listener on whichever handler the deployment builds; nil keeps
	// the defaults (metrics on, logging off, no debug listener).
	Observability *ObservabilityConfig
	// Replication runs the self-healing sync state machine on a
	// single-service WAL deployment: the daemon serves the /v1/repl/*
	// endpoints (snapshot + WAL shipping for followers, sync nudge +
	// status), and — when a peer is configured or nudged — bootstraps or
	// repairs itself from that peer before accepting external writes.
	// Requires WAL; see ReplicationConfig.
	Replication *ReplicationConfig
}

// validate is every range and shape check of a Deployment, for the Go
// form and the file form alike: Build runs it before building anything,
// Config.Deployment before returning. The messages name the file keys.
func (d Deployment) validate() error {
	if d.Shards < 0 {
		return fmt.Errorf("serve: shards must be non-negative, got %d", d.Shards)
	}
	if d.ReplicasPerShard < 0 {
		return fmt.Errorf("serve: replicas_per_shard must be non-negative, got %d", d.ReplicasPerShard)
	}
	if d.ReplicasPerShard > 1 && d.Shards <= 1 {
		return fmt.Errorf("serve: replicas_per_shard needs shards > 1 (a single service has no replicas)")
	}
	if err := d.Backend.validate(); err != nil {
		return err
	}
	if err := d.Limits.validate(); err != nil {
		return err
	}
	if w := d.WAL; w != nil {
		if d.VolatileWrites {
			return fmt.Errorf("serve: wal and volatile_writes contradict each other: a write path is durable or it is not")
		}
		if w.Dir == "" {
			return fmt.Errorf("serve: wal.dir is required when wal is set")
		}
		if w.FsyncEvery < 0 || w.SegmentBytes < 0 {
			// The ingest layer would quietly normalize these to defaults;
			// an operator who wrote one believes it is enforced.
			return fmt.Errorf("serve: wal.fsync_every and wal.segment_bytes must be non-negative (0 means default)")
		}
		if _, err := ingest.ParseSyncPolicy(w.Fsync); err != nil {
			return err
		}
		// The ingest layer reads 0 as "use the default", which would
		// silently override an explicit 0 here — make the operator say
		// what they mean.
		if w.DriftThreshold != nil && *w.DriftThreshold == 0 {
			return fmt.Errorf("serve: wal.drift_threshold 0 is ambiguous: omit it for the default, use a negative value to disable retrains, or a small positive fraction")
		}
	}
	if d.Replication != nil {
		if d.WAL == nil {
			return fmt.Errorf("serve: replication requires a wal block — the WAL is the replication transport")
		}
		if d.Shards > 1 {
			return fmt.Errorf("serve: replication applies to a single-service daemon; in a routed topology each shard process carries its own replication block")
		}
	}
	return d.Observability.validate()
}

// Server is a built Deployment: the handle through which a process
// serves, snapshots, and shuts down one topology: a single query
// service (Service) or a scatter-gather router, matching the
// deployment's shape.
type Server struct {
	handler http.Handler
	svc     *fingerprint.Service
	router  *shard.Router
	stores  []*ingest.Store // every write path the build opened
	durable bool            // the stores have a log
	syncer  *cluster.Syncer
	tracer  *obs.Tracer
	origins []indexOrigin // where each serving index came from
}

// Handler returns the HTTP handler serving the /v1 wire protocol for
// the whole topology.
func (s *Server) Handler() http.Handler { return s.handler }

// Service returns the single query service, nil for a sharded build.
func (s *Server) Service() *fingerprint.Service { return s.svc }

// Stores returns every durable write path the build opened (one per
// shard replica), empty without a WAL — volatile stores have nothing
// to snapshot. Keep them to Snapshot. Under replication the store can
// be swapped by a full resync, so ask each time instead of caching the
// slice.
func (s *Server) Stores() []*ingest.Store {
	if s.syncer != nil {
		if st := s.syncer.Store(); st != nil {
			return []*ingest.Store{st}
		}
		return nil
	}
	if !s.durable {
		return nil
	}
	return s.stores
}

// Store returns the single-service build's durable write path, nil
// without a WAL (use Stores for sharded builds). Under replication
// this is the syncer's CURRENT store — a full resync replaces it, so
// snapshot paths must call Store at use time, not once at startup.
func (s *Server) Store() *ingest.Store {
	if st := s.Stores(); len(st) > 0 {
		return st[0]
	}
	return nil
}

// LastRetrain is how long the single service's last drift retrain took,
// durable write path or volatile; 0 before the first, and for a sharded
// build.
func (s *Server) LastRetrain() time.Duration {
	stores := s.stores
	if s.syncer != nil {
		stores = s.Stores()
	}
	if s.svc == nil || len(stores) == 0 {
		return 0
	}
	return stores[0].LastRetrain()
}

// IndexOrigin says where the build's serving index came from, as a
// startup line can print it: "trained ivfpq index", "loaded ivfpq index
// from <file>", "index file <file> refused (<reason>); trained ivfpq
// index", or "built flat index"; a sharded build counts the loaded.
func (s *Server) IndexOrigin() string { return summarize(s.origins) }

// TraceStore returns the trace retention store behind the deployment's
// tracer — what ListenDebug mounts as /v1/debug/traces. Nil when
// retention is disabled or the server was wired without a tracer
// (NewRouter, where the tracer lives in the router options).
func (s *Server) TraceStore() *obs.TraceStore {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Store()
}

// Serve runs the deployment on l until ctx is cancelled, then drains
// in-flight requests for up to grace. A replication-enabled build also
// runs its startup sync loop here, and a router built with
// shard.WithRepair its anti-entropy repair loop — both stop with ctx.
func (s *Server) Serve(ctx context.Context, l net.Listener, grace time.Duration) error {
	bg, cancel := context.WithCancel(ctx)
	defer cancel()
	if s.syncer != nil {
		go s.syncer.Run(bg)
	}
	if s.router != nil {
		go s.router.RunRepairLoop(bg)
	}
	return fingerprint.ServeHandler(ctx, l, s.handler, grace)
}

// Close flushes and closes every write path, durable or volatile,
// waiting out background retrains. It does not snapshot; call Store
// Snapshot first when compaction on shutdown is wanted.
func (s *Server) Close() error {
	if s.syncer != nil {
		// The syncer owns the current store (a full resync may have
		// replaced the one opened at startup).
		return s.syncer.Close()
	}
	var firstErr error
	for _, st := range s.stores {
		if err := st.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Build assembles the declared topology over db, which must exist.
func (d Deployment) Build(db *fingerprint.DB) (*Server, error) {
	if db == nil {
		return nil, fmt.Errorf("serve: no linkage database to serve (a session has one after Fingerprint)")
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	if d.Shards > 1 {
		return d.buildSharded(db)
	}
	return d.buildSingle(db)
}

// buildSingle assembles the one-daemon shape: the backend, query
// service with limits, and whichever write path the config asks for.
// The handler is built last — replication mounts the /v1/repl/* routes
// on the service first.
func (d Deployment) buildSingle(db *fingerprint.DB) (*Server, error) {
	searcher, origin, err := d.backend(keepBase(d.logDir(), d.DBFile), db)
	if err != nil {
		return nil, err
	}
	tracer := d.Observability.tracer()
	sopts := append(d.Limits.options(), fingerprint.WithObservability(d.Observability.options("serve", tracer)))
	svc := fingerprint.NewSearcherService(searcher, sopts...)
	srv := &Server{svc: svc, tracer: tracer, durable: d.WAL != nil, origins: []indexOrigin{origin}}
	if d.WAL != nil || d.VolatileWrites {
		store, err := d.openStore(d.logDir(), db, searcher, svc)
		if err != nil {
			return nil, err
		}
		if d.Replication != nil {
			sync, err := d.newSyncer(svc)
			if err != nil {
				store.Close()
				return nil, err
			}
			// The syncer is the service's long-lived Ingester: external
			// writes flow through it into the current store, and reject
			// with 503 while a sync run rewrites history underneath.
			sync.AttachStore(store)
			svc.SetIngester(sync)
			src := cluster.NewSource(sync.Store)
			svc.SetReplRoutes(fingerprint.ReplRoutes{
				Snapshot: src.HandleSnapshot,
				WAL:      src.HandleWAL,
				Sync:     sync.HandleSync,
				Status:   sync.HandleStatus,
			})
			svc.MustRegisterMetrics(sync.MetricFamilies()...)
			srv.syncer = sync
		} else {
			svc.SetIngester(store)
			srv.stores = []*ingest.Store{store}
		}
	}
	current := func() *fingerprint.DB { return db }
	if d.WAL != nil {
		// Under replication a full resync replaces the store and its
		// database: ask each time, and keep the old one unreachable from
		// here.
		current = func() *fingerprint.DB {
			if st := srv.Store(); st != nil {
				return st.DB()
			}
			return nil
		}
	}
	svc.MustRegisterMetrics(residentFamily(current, svc.Searcher))
	srv.handler = svc.Handler()
	return srv, nil
}

// residentFamily is the resident cost of the linkages a daemon serves,
// by where it is kept: the database's float rows, the provenance beside
// them, its class index, and what the serving index adds on top. Every
// part is computed from the lengths of the arrays that hold it, so a
// scrape costs nothing; index ÷ rows is the overhead the index adds,
// and the four over 4·dim·caltrain_entries the factor over raw vectors.
func residentFamily(db func() *fingerprint.DB, searcher func() fingerprint.Searcher) *obs.Family {
	return obs.SamplesFunc(fingerprint.ResidentBytesMetric,
		"Bytes the served linkages keep resident, by part: the database's rows, provenance and class_index, and what the index holds on top.",
		obs.KindGauge, func() []obs.Sample {
			now := db()
			if now == nil {
				return nil // mid-resync: no database to measure
			}
			rows, provenance, classIndex := now.ResidentBytes()
			var index int64
			if o, ok := searcher().(interface{ OwnedBytes() int64 }); ok {
				index = o.OwnedBytes()
			}
			part := func(name string, bytes int64) obs.Sample {
				return obs.Sample{Labels: []obs.Label{{Name: "part", Value: name}}, Value: float64(bytes)}
			}
			return []obs.Sample{part("rows", rows), part("provenance", provenance), part("class_index", classIndex), part("index", index)}
		})
}

// newSyncer wires the replication state machine for a single-service
// build: Build trains a serving backend from a fetched snapshot with
// the deployment's backend, Reopen is the full-resync handoff (wipe the
// local WAL, open a fresh store with the same Swapper/Rebuild plumbing
// the startup store had).
func (d Deployment) newSyncer(svc *fingerprint.Service) (*cluster.Syncer, error) {
	dir := d.WAL.Dir
	return cluster.NewSyncer(cluster.Options{
		Peer:    d.Replication.Peer,
		Service: svc,
		Build: func(ndb *fingerprint.DB) (fingerprint.Searcher, error) {
			sr, err := d.Backend.build(ndb)
			return exactWhenEmpty(ndb, sr, err)
		},
		Reopen: func(ndb *fingerprint.DB, sr fingerprint.Searcher) (*ingest.Store, error) {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			return d.openStore(dir, ndb, sr, svc)
		},
		Logf: d.logf,
	})
}

// logf reports background write-path events — retrains, syncs —
// through the deployment's logger, slog.Default when none is set.
func (d Deployment) logf(format string, args ...any) {
	logger := slog.Default()
	if d.Observability != nil && d.Observability.Logger != nil {
		logger = d.Observability.Logger
	}
	logger.Info(fmt.Sprintf(format, args...))
}

// buildSharded assembles the in-process sharded shape: the database is
// hash-split by label, each shard (replica) gets its own backend, query
// service, and write path, and a scatter-gather router fans the /v1
// protocol across them. Writes route to the owning shard and replicate
// to all of its replicas, exactly like the caltrain-router topology.
func (d Deployment) buildSharded(db *fingerprint.DB) (*Server, error) {
	m, err := shard.NewHashMap(d.Shards)
	if err != nil {
		return nil, err
	}
	nrep := max(1, d.ReplicasPerShard)
	replicas := make([][]shard.Replica, d.Shards)
	srv := &Server{durable: d.WAL != nil}
	limits := d.Limits.options()
	for rep := 0; rep < nrep; rep++ {
		// Each replica owns a private copy of its shard's data, split
		// fresh from the seed database, so replicated writes and failover
		// behave as they would across processes.
		parts, err := shard.SplitDB(db, m)
		if err != nil {
			return nil, err
		}
		for i, part := range parts {
			dir := d.logDir(fmt.Sprintf("shard-%d", i), fmt.Sprintf("replica-%d", rep))
			searcher, origin, err := d.backend(keepBase(dir, ""), part)
			if searcher, err = exactWhenEmpty(part, searcher, err); err != nil {
				return nil, fmt.Errorf("serve: shard %d backend: %w", i, err)
			}
			srv.origins = append(srv.origins, origin)
			svc := fingerprint.NewSearcherService(searcher, limits...)
			name := fmt.Sprintf("local-shard-%d", i)
			if nrep > 1 {
				name = fmt.Sprintf("local-shard-%d-replica-%d", i, rep)
			}
			if d.WAL != nil || d.VolatileWrites {
				store, err := d.openStore(dir, part, searcher, svc)
				if err != nil {
					return nil, fmt.Errorf("serve: shard %d write path: %w", i, err)
				}
				svc.SetIngester(store)
				srv.stores = append(srv.stores, store)
			}
			replicas[i] = append(replicas[i], shard.NewLocalReplica(name, svc))
		}
	}
	// One tracer for the whole topology: the router's middleware records
	// the root, and the local replicas' spans flow into the same trace
	// through the request context — a single store holds the full tree.
	tracer := d.Observability.tracer()
	srv.tracer = tracer
	ropts := []shard.RouterOption{shard.WithObservability(d.Observability.options("router", tracer))}
	if d.WAL == nil && !d.VolatileWrites {
		// Every shard service was built read-only; say so on /v1/meta
		// instead of advertising a write path that would only answer 501.
		ropts = append(ropts, shard.WithIngestCapability(false))
	}
	rt, err := shard.NewRouter(m, replicas, ropts...)
	if err != nil {
		return nil, err
	}
	srv.router = rt
	srv.handler = rt.Handler()
	return srv, nil
}

// exactWhenEmpty is the outcome of building a backend over db, falling
// back to the exact Flat index when the backend cannot build over an
// empty db (IVF cannot train without vectors; the shard serves exact
// until writes arrive). In-process shards and a replica's resync share
// this policy.
func exactWhenEmpty(db *fingerprint.DB, sr fingerprint.Searcher, err error) (fingerprint.Searcher, error) {
	if err != nil && db.Len() == 0 {
		return index.NewFlat(db), nil
	}
	return sr, err
}

// logDir is the log directory of one write path under the deployment's
// WAL, "" (no log: a volatile store) without one.
func (d Deployment) logDir(elem ...string) string {
	if d.WAL == nil {
		return ""
	}
	return filepath.Join(append([]string{d.WAL.Dir}, elem...)...)
}

// openStore opens one write path, durable with a log at dir and
// volatile when dir is "" — the one place a deployment's ingest.Options
// are made. Retrains rebuild through the backend and hot-swap into the
// built service, so writes past the drift threshold retrain the serving
// backend; their outcomes go to the deployment's logger. A path that
// keeps its trained index in its log (keepIndex) persists a replacing
// training on a snapshot, under the snapshot's lock; a volatile path's
// writes never reach its database file, so what it kept stays true.
func (d Deployment) openStore(dir string, db *fingerprint.DB, searcher fingerprint.Searcher, svc *fingerprint.Service) (*ingest.Store, error) {
	opts := ingest.Options{Rebuild: d.Backend.rebuild(), Swapper: svc, Logf: d.logf}
	if keep, ok := keepIndex(keepBase(dir, ""), d.Backend); ok {
		// kept is the serving index whose training the file holds: the
		// one backend loaded or wrote, none when there is no file.
		var kept fingerprint.Searcher
		if _, err := os.Stat(keep.file); err == nil {
			kept = searcher
		}
		opts.Persist = func(sr fingerprint.Searcher) {
			if sr != kept {
				kept = sr
				d.persist(keep, sr)
			}
		}
	}
	if w := d.WAL; w != nil {
		sync, err := ingest.ParseSyncPolicy(w.Fsync)
		if err != nil {
			return nil, err
		}
		opts.WAL = ingest.WALOptions{Sync: sync, SyncEvery: time.Duration(w.FsyncEvery), SegmentBytes: w.SegmentBytes}
		if w.DriftThreshold != nil {
			opts.DriftThreshold = *w.DriftThreshold
		}
	}
	return ingest.Open(dir, db, searcher, opts)
}

// ListenDebug opens the opt-in debug sidecar: net/http/pprof, expvar,
// and — when store is non-nil — the /v1/debug/traces inspection
// endpoints, served on their own listener at addr, never mounted on the
// public handler. It returns the bound listener; close it to stop
// serving. An empty addr is an error — callers gate on the knob first.
func ListenDebug(addr string, store *obs.TraceStore) (net.Listener, error) {
	if addr == "" {
		return nil, fmt.Errorf("serve: debug listener needs an address")
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: debug listener: %w", err)
	}
	srv := &http.Server{Handler: obs.DebugHandler(store)}
	go func() { _ = srv.Serve(l) }()
	return l, nil
}

// NewRouter wraps an externally wired scatter-gather router — remote
// HTTP replicas, a loaded shard map — as a Server: the caltrain-router
// topology, where the shards live in other processes. In-process
// sharding goes through Deployment.Build instead.
func NewRouter(m *shard.Map, replicas [][]shard.Replica, opts ...shard.RouterOption) (*Server, error) {
	rt, err := shard.NewRouter(m, replicas, opts...)
	if err != nil {
		return nil, err
	}
	return &Server{router: rt, handler: rt.Handler()}, nil
}
