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
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
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

// validate is the observability part of Deployment.validate. Negative
// thresholds, unparseable listen addresses and a NaN sample rate are
// rejected rather than silently ignored — an operator who wrote one
// believes it is in effect.
func (o *ObservabilityConfig) validate() error {
	if o == nil {
		return nil
	}
	if err := negative("observability.slow_query_threshold", o.SlowQueryThreshold, "disables the slow-query log"); err != nil {
		return err
	}
	if o.DebugAddr != "" {
		if _, _, err := net.SplitHostPort(o.DebugAddr); err != nil {
			return refuse("observability.debug_addr", "must be host:port: %v", err)
		}
	}
	if t := o.Trace; t != nil {
		if r := t.SampleRate; r != nil && !(*r >= 0 && *r <= 1) {
			return refuse("observability.tracing.sample_rate", "must be in [0, 1], got %v", *r)
		}
		if t.StoreSize > maxTraceStore {
			return refuse("observability.tracing.store", "must be at most %d traces, got %d", maxTraceStore, t.StoreSize)
		}
		return negative("observability.tracing.slow_always", t.SlowAlways, "disables")
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
//	Deployment{Topology: &TopologyConfig{...}}            // router over shard daemons
//
// Build assembles it; every topology serves the same versioned /v1 wire
// protocol, so clients cannot tell the shapes apart except through
// GET /v1/meta. The json tags are its file form, Config; the flag tags
// bind its knobs to a daemon's flags (BindFlags).
type Deployment struct {
	// Backend selects the index backend; the zero value means flat.
	Backend BackendConfig `json:"backend"`
	// Shards >1 splits the database by label hash across that many
	// shards behind an in-process scatter-gather router; 0 or 1 serves a
	// single query service. File only: it makes the daemon a whole
	// topology, which one document declares.
	Shards int `json:"shards,omitempty"`
	// ReplicasPerShard builds that many identical replicas per shard
	// (sharded only; 0 or 1 means one). Replicas make routed writes
	// quorum-able and reads failover-able, at ReplicasPerShard× the
	// memory. File only: it means something only beside shards.
	ReplicasPerShard int `json:"replicas_per_shard,omitempty"`
	// WAL enables the durable write path (see WALConfig). Nil with
	// VolatileWrites false builds a read-only deployment.
	WAL *WALConfig `json:"wal,omitempty" flag:""`
	// DBFile is the file the database was loaded from, if any. A single
	// service without a WAL whose backend trains (ivf, ivfpq) keeps its
	// training beside it (KeptIndexFile) and loads it on the next Build
	// over the same file and knobs; a WAL deployment keeps it in its log
	// directory instead, and a sharded one in each replica's. A single
	// service with a WAL compacts its log into it (Server.Serve). A
	// process-local part: no file spells it.
	DBFile string `json:"-"`
	// VolatileWrites enables a non-durable in-memory write path when WAL
	// is nil: the same ingest.Store a WAL deployment opens, without a
	// log. POST /ingest applies to the database and index, and retrains
	// an approximate backend past the default drift threshold, but every
	// write is lost on restart. File only: such a write path is written
	// down, not typed.
	VolatileWrites bool `json:"volatile_writes,omitempty"`
	// Limits bounds request sizes (body, k, batch) and sets the latency
	// histogram on every query service the deployment builds, and body,
	// batch and latency histogram at its router's door, in-process or
	// over a topology; nil keeps the defaults.
	Limits *LimitsConfig `json:"limits,omitempty"`
	// Observability tunes metrics, request logging, and the debug
	// listener on whichever handler the deployment builds; nil keeps
	// the defaults (metrics on, logging off, no debug listener).
	Observability *ObservabilityConfig `json:"observability,omitempty"`
	// Replication runs the self-healing sync state machine on a
	// single-service WAL deployment: the daemon serves the /v1/repl/*
	// endpoints (snapshot + WAL shipping for followers, sync nudge +
	// status), and — when a peer is configured or nudged — bootstraps or
	// repairs itself from that peer before accepting external writes.
	// Requires WAL; see ReplicationConfig.
	Replication *ReplicationConfig `json:"replication,omitempty" flag:"repl" usage:"enable replication: serve the /v1/repl/* snapshot+WAL source endpoints and run the sync state machine (needs -wal)"`
	// Topology routes to shard daemons in other processes, the
	// caltrain-router shape: Build(nil) loads its shard map and builds a
	// router over the replicas it names. It conflicts with every field
	// that builds a local service (Backend, Shards, ReplicasPerShard,
	// WAL, VolatileWrites, Replication); see TopologyConfig.
	Topology *TopologyConfig `json:"topology,omitempty"`
}

// validate is every range and shape check of a Deployment, for the Go
// form and the file form alike: Build runs it before building anything,
// Config.Deployment before returning. Each refusal of one knob is a
// KnobError naming its file key.
func (d Deployment) validate() error {
	if d.Topology != nil {
		if err := d.validateTopology(); err != nil {
			return err
		}
	}
	if err := cmp.Or(negative("shards", d.Shards, "or 1 serves one service"),
		negative("replicas_per_shard", d.ReplicasPerShard, "or 1 means one")); err != nil {
		return err
	}
	if d.ReplicasPerShard > 1 && d.Shards <= 1 {
		return refuse("replicas_per_shard", "needs shards > 1 (a single service has no replicas)")
	}
	if err := d.Backend.validate(); err != nil {
		return err
	}
	if err := d.Limits.validate(); err != nil {
		return err
	}
	if w := d.WAL; w != nil {
		if d.VolatileWrites {
			return refuse("volatile_writes", "contradicts wal: a write path is durable or it is not")
		}
		if w.Dir == "" {
			return &KnobError{Key: "wal.dir", By: "wal", Why: "must name the log directory (leave wal out for a daemon without one)"}
		}
		// The ingest layer would quietly read these as its defaults.
		if err := cmp.Or(negative("wal.fsync_every", w.FsyncEvery, "means the default"),
			negative("wal.segment_bytes", w.SegmentBytes, "means the default"),
			negative("wal.snapshot_every", w.SnapshotEvery, "compacts only after the drain")); err != nil {
			return err
		}
		if _, err := ingest.ParseSyncPolicy(w.Fsync); err != nil {
			return refuse("wal.fsync", "must be always, interval, or never, got %q", w.Fsync)
		}
		// The ingest layer reads 0 as "use the default", which would
		// silently override an explicit 0 here — make the operator say
		// what they mean.
		if w.DriftThreshold != nil && *w.DriftThreshold == 0 {
			return refuse("wal.drift_threshold", "0 is ambiguous: omit it for the default, use a negative value to disable retrains, or a small positive fraction")
		}
		// No drift compares below NaN: every ingest would retrain.
		if w.DriftThreshold != nil && math.IsNaN(*w.DriftThreshold) {
			return refuse("wal.drift_threshold", "must be a number, got NaN")
		}
		if w.SnapshotEvery > 0 && d.Shards > 1 {
			return refuse("wal.snapshot_every", "needs a single-service deployment: sharded stores compact per shard, not into one database file")
		}
	}
	if d.Replication != nil {
		if d.WAL == nil {
			return &KnobError{Key: "wal.dir", By: "replication", Why: "is required by replication: the WAL is its transport"}
		}
		if d.Shards > 1 {
			return refuse("replication", "applies to a single-service daemon; in a routed topology each shard process carries its own replication block")
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
	origins []indexOrigin  // where each serving index came from
	routes  shard.Strategy // the shard map of a router over shard daemons
	single  Deployment     // what a single service was built from
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
// index", or "built flat index"; a sharded build counts the loaded. A
// router over shard daemons, whose indexes are theirs, names the map
// that routes to them: "hash map" or "range map".
func (s *Server) IndexOrigin() string {
	if len(s.origins) == 0 {
		return s.routes.String() + " map"
	}
	return summarize(s.origins)
}

// TraceStore returns the trace retention store behind the deployment's
// tracer — what ListenDebug mounts as /v1/debug/traces. Nil when
// retention is disabled.
func (s *Server) TraceStore() *obs.TraceStore { return s.tracer.Store() }

// Serve runs the deployment on l until ctx is cancelled, then drains
// in-flight requests for up to grace. The build's loops stop with ctx:
// a replicated build's sync, a router's repair, and a single durable
// store's compaction into DBFile every wal.snapshot_every — which
// compacts once more after the drain, so a restart replays no log.
func (s *Server) Serve(ctx context.Context, l net.Listener, grace time.Duration) error {
	bg, cancel := context.WithCancel(ctx)
	defer cancel()
	if s.syncer != nil {
		go s.syncer.Run(bg)
	}
	if s.router != nil {
		go s.router.RunRepairLoop(bg)
	}
	compacting := make(chan struct{})
	go s.compactEvery(bg, compacting)
	err := fingerprint.ServeHandler(ctx, l, s.handler, grace)
	cancel()
	<-compacting
	if err != nil {
		return err
	}
	return s.compactNow()
}

// compactEvery compacts every wal.snapshot_every until ctx ends, then
// closes done. A failed compaction is logged; the WAL keeps its entries.
func (s *Server) compactEvery(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	if w := s.single.WAL; w == nil || w.SnapshotEvery <= 0 {
		return
	}
	t := time.NewTicker(time.Duration(s.single.WAL.SnapshotEvery))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.compactNow(); err != nil {
				s.single.logf("snapshot: %v", err)
			}
		case <-ctx.Done():
			return
		}
	}
}

// compactNow snapshots a single durable store into its database file
// and truncates its log. The store is asked for now: under replication
// a full resync swaps it out.
func (s *Server) compactNow() error {
	if st := s.Store(); st != nil && s.single.DBFile != "" {
		return st.Snapshot(s.single.DBFile)
	}
	return nil
}

// Close flushes and closes every write path, durable or volatile,
// waiting out background retrains. It does not snapshot: Serve
// compacts after its drain.
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

// Build assembles the declared topology over db, which must exist —
// except for a Topology, whose shards serve their own databases in
// other processes: that one builds over none, Build(nil).
func (d Deployment) Build(db *fingerprint.DB) (*Server, error) {
	if db == nil && d.Topology == nil {
		return nil, fmt.Errorf("serve: no linkage database to serve (a session has one after Fingerprint)")
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	if d.WAL != nil && d.WAL.SnapshotEvery > 0 && d.DBFile == "" {
		return nil, refuse("wal.snapshot_every", "needs DBFile, the database file the log compacts into")
	}
	switch {
	case d.Topology != nil && db != nil:
		return nil, fmt.Errorf("serve: a topology routes to shard daemons that serve their own databases: build it over none")
	case d.Topology != nil:
		return d.buildRouted()
	case d.Shards > 1:
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
	srv := &Server{svc: svc, tracer: tracer, durable: d.WAL != nil, origins: []indexOrigin{origin}, single: d}
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
		Build: func(ndb *fingerprint.DB) (fingerprint.Appender, error) {
			sr, err := d.Backend.build(ndb)
			return exactWhenEmpty(ndb, sr, err)
		},
		Reopen: func(ndb *fingerprint.DB, sr fingerprint.Appender) (*ingest.Store, error) {
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
	fail := func(err error) (*Server, error) { // the stores already open close as on shutdown
		srv.Close()
		return nil, err
	}
	limits := d.Limits.options()
	for rep := 0; rep < nrep; rep++ {
		// Each replica owns a private copy of its shard's data, split
		// fresh from the seed database, so replicated writes and failover
		// behave as they would across processes.
		parts, err := shard.SplitDB(db, m)
		if err != nil {
			return fail(err)
		}
		for i, part := range parts {
			dir := d.logDir(fmt.Sprintf("shard-%d", i), fmt.Sprintf("replica-%d", rep))
			searcher, origin, err := d.backend(keepBase(dir, ""), part)
			if searcher, err = exactWhenEmpty(part, searcher, err); err != nil {
				return fail(fmt.Errorf("serve: shard %d backend: %w", i, err))
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
					return fail(fmt.Errorf("serve: shard %d write path: %w", i, err))
				}
				svc.SetIngester(store)
				srv.stores = append(srv.stores, store)
			}
			replicas[i] = append(replicas[i], shard.NewLocalReplica(name, svc))
		}
	}
	return d.route(srv, m, replicas)
}

// exactWhenEmpty is the outcome of building a backend over db, falling
// back to the exact Flat index when the backend cannot build over an
// empty db (IVF cannot train without vectors; the shard serves exact
// until writes arrive). In-process shards and a replica's resync share
// this policy.
func exactWhenEmpty(db *fingerprint.DB, sr fingerprint.Appender, err error) (fingerprint.Appender, error) {
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
func (d Deployment) openStore(dir string, db *fingerprint.DB, searcher fingerprint.Appender, svc *fingerprint.Service) (*ingest.Store, error) {
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
