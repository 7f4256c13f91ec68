package shard

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

// Router limits and defaults.
const (
	DefaultShardTimeout    = 5 * time.Second
	DefaultReplicaCooldown = time.Second
)

// RouterLatencyBucketsUS is the router's default latency-bucket bounds
// (microseconds): network-scale, 1ms–5s, where the single-daemon
// defaults (fingerprint.DefaultLatencyBucketsUS) top out at 100ms.
var RouterLatencyBucketsUS = []int64{
	1000, 2500, 5000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
}

// Router fans accountability queries out to label-sharded daemons and
// gathers the results. It serves the exact protocol of a single daemon
// (POST /query, POST /query/batch, GET /healthz, GET /stats), so
// fingerprint.Client works unchanged against it.
//
// Batches scatter into per-shard sub-batches that run concurrently,
// each bounded by a per-shard timeout. Replicas of a shard are tried in
// health-aware order (healthy first, cooling-down ones as a last
// resort); if every replica of a shard fails, that shard's queries come
// back as per-result errors and the batch response names the shard in
// unreachable_shards — a partial result, never a batch failure.
type Router struct {
	m           *Map
	shards      [][]*replicaState
	timeout     time.Duration
	cooldown    time.Duration
	writeQuorum int
	metaIngest  bool
	now         func() time.Time

	// front is the request side the router shares with a single daemon:
	// limits, counters, body decoding, batch admission, error counting.
	front *fingerprint.Front

	// cacheSize > 0 enables the single-query response cache; cache is
	// built in NewRouter once the shard count is known.
	cacheSize int
	cache     *responseCache

	// repairCfg != nil enables the anti-entropy repair loop; repair is
	// built in NewRouter and started by Serve (or RunRepairLoop).
	repairCfg *RepairOptions
	repair    *repairer

	metrics *obs.Registry
	// scrapeMu guards scrape, the shard totals refreshed on every
	// /v1/metrics request so the per-shard gauges and the rolled-up
	// histogram read from one consistent fetch.
	scrapeMu sync.Mutex
	scrape   shardTotals
}

// RouterOption configures a Router.
type RouterOption func(*Router)

// WithShardTimeout bounds each shard call (including failover attempts
// to that shard's replicas combined). Default DefaultShardTimeout.
func WithShardTimeout(d time.Duration) RouterOption {
	return func(r *Router) { r.timeout = d }
}

// WithReplicaCooldown sets the base cooldown a failed replica sits out
// before being probed again (it grows exponentially with consecutive
// failures). Default DefaultReplicaCooldown.
func WithReplicaCooldown(d time.Duration) RouterOption {
	return func(r *Router) { r.cooldown = d }
}

// WithRouterMaxBodyBytes bounds the accepted request body size.
func WithRouterMaxBodyBytes(n int64) RouterOption { return func(r *Router) { r.front.MaxBody = n } }

// WithRouterMaxBatch bounds the number of queries in one batch request,
// and of entries in one ingest request.
func WithRouterMaxBatch(n int) RouterOption { return func(r *Router) { r.front.MaxBatch = n } }

// WithRouterLatencyBuckets replaces the router-level latency histogram
// bounds (microseconds). Default RouterLatencyBucketsUS.
func WithRouterLatencyBuckets(boundsUS []int64) RouterOption {
	return func(r *Router) { r.front.Latency = fingerprint.NewHistogram(boundsUS) }
}

// WithIngestCapability sets whether GET /v1/meta advertises a write
// path. It defaults to true: a router over external daemons cannot see
// their -wal configuration, and the ingest endpoint itself always
// exists. An in-process Deployment that built its shards read-only
// passes false, so capability discovery tells the truth instead of
// inviting a probe-for-501 round trip.
func WithIngestCapability(v bool) RouterOption {
	return func(r *Router) { r.metaIngest = v }
}

// WithWriteQuorum sets how many replicas of a shard must acknowledge an
// ingest batch before the router reports it durable. 0 (the default)
// means a majority of the shard's replicas; values above a shard's
// replica count are clamped to it (i.e. all replicas). Replicas that
// miss a quorum-acknowledged batch are named in degraded_replicas —
// they serve stale data until resynced from a snapshot.
func WithWriteQuorum(n int) RouterOption {
	return func(r *Router) { r.writeQuorum = n }
}

// WithRouterResponseCache enables a bounded LRU over single-query
// responses, keyed by (label, fingerprint hash, k) and capped at n
// entries. A hit answers from the router without touching any shard; a
// write routed to a shard invalidates every cached response that shard
// owns (per-shard generation counters — no key scan). n <= 0 leaves
// caching off, the default: only deployments with genuinely hot repeat
// queries should pay the staleness bookkeeping.
func WithRouterResponseCache(n int) RouterOption {
	return func(r *Router) { r.cacheSize = n }
}

// WithObservability configures the router's request logging, slow-query
// threshold, and metrics toggle — the same knobs
// fingerprint.WithObservability gives a single daemon.
func WithObservability(o fingerprint.Observability) RouterOption {
	return func(r *Router) { r.front.Observability = o }
}

// NewRouter creates a router over m.NumShards() shards; replicas[i]
// lists shard i's endpoints in preference order, each non-empty.
func NewRouter(m *Map, replicas [][]Replica, opts ...RouterOption) (*Router, error) {
	if len(replicas) != m.NumShards() {
		return nil, fmt.Errorf("shard: map has %d shards but %d replica sets given", m.NumShards(), len(replicas))
	}
	r := &Router{
		m:          m,
		timeout:    DefaultShardTimeout,
		cooldown:   DefaultReplicaCooldown,
		metaIngest: true,
		now:        time.Now,
		front:      fingerprint.NewFront(RouterLatencyBucketsUS),
	}
	for _, o := range opts {
		o(r)
	}
	r.shards = make([][]*replicaState, len(replicas))
	for i, reps := range replicas {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replicas", i)
		}
		states := make([]*replicaState, len(reps))
		for j, rep := range reps {
			states[j] = &replicaState{r: rep}
		}
		r.shards[i] = states
	}
	if r.cacheSize > 0 {
		r.cache = newResponseCache(r.cacheSize, len(r.shards))
	}
	if r.repairCfg != nil {
		r.repair = newRepairer(r, *r.repairCfg)
	}
	r.metrics = r.buildMetrics()
	return r, nil
}

// NumShards returns how many shards the router fans out across.
func (r *Router) NumShards() int { return r.m.NumShards() }

// Handler returns the router's HTTP handler: the same versioned wire
// protocol a single daemon serves (/v1/*, from the shared
// fingerprint.RouteSet), answered by scatter-gather.
func (r *Router) Handler() http.Handler {
	rs := fingerprint.RouteSet{
		Query:         r.handleQuery,
		QueryBatch:    r.handleBatch,
		Ingest:        r.handleIngest,
		Healthz:       r.handleHealthz,
		Stats:         r.handleStats,
		Meta:          r.Meta,
		Observability: r.front.Observability,
	}
	if !r.front.Observability.DisableMetrics {
		rs.Metrics = r.handleMetrics
	}
	return rs.Handler()
}

// Meta reports the router's /v1/meta identity. Ingest is advertised
// per WithIngestCapability: by default true — the router always fans
// writes out, and over external daemons it cannot see whether they run
// -wal — but an in-process read-only Deployment sets it false so
// discovery tells the truth.
func (r *Router) Meta() fingerprint.MetaResponse {
	return fingerprint.MetaResponse{
		Server:   fingerprint.ServerVersion,
		Protocol: fingerprint.ProtocolVersion,
		Backend:  "router",
		Capabilities: fingerprint.MetaCapabilities{
			Ingest:  r.metaIngest,
			Sharded: true,
			Trace:   r.front.Observability.Tracer != nil,
		},
		Build: obs.Build(),
	}
}

// Serve runs the router on l until ctx is cancelled, then drains
// in-flight requests for up to grace, exactly like Service.Serve. When
// WithRepair is configured the anti-entropy repair loop runs alongside
// serving and stops with it.
func (r *Router) Serve(ctx context.Context, l net.Listener, grace time.Duration) error {
	if r.repair != nil {
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()
		go r.repair.run(rctx)
	}
	return fingerprint.ServeHandler(ctx, l, r.Handler(), grace)
}

// RunRepairLoop runs the anti-entropy repair loop until ctx is
// cancelled, for deployments that serve the router through Handler()
// rather than Serve. No-op without WithRepair.
func (r *Router) RunRepairLoop(ctx context.Context) {
	if r.repair != nil {
		r.repair.run(ctx)
	}
}

// eachShard is the router's one fan-out: it runs fn for every shard that
// has work — work[sid] non-empty — each on its own goroutine, and
// returns how many that was once all have finished. Queries and writes
// pass their per-shard sub-batches, health and stats probes the replica
// sets themselves (never empty). fn owns slot sid of whatever its caller
// collects into, so no fan-out needs a lock.
func eachShard[T any](work [][]T, fn func(sid int, w []T)) (ran int) {
	var wg sync.WaitGroup
	for sid, w := range work {
		if len(w) == 0 {
			continue
		}
		ran++
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(sid, w)
		}()
	}
	wg.Wait()
	return ran
}

// shardNames lists the marked shards the way the wire protocol names
// them ("shard N"), sorted as strings; nil when none is marked.
func shardNames(marked []bool) []string {
	var names []string
	for sid, m := range marked {
		if m {
			names = append(names, fmt.Sprintf("shard %d", sid))
		}
	}
	sort.Strings(names)
	return names
}

func writeJSON(w http.ResponseWriter, v any) {
	fingerprint.WriteJSON(w, http.StatusOK, v)
}
