package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caltrain/internal/cluster"
	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

// Replica is one serving endpoint of a shard: a process (or in-process
// service) holding that shard's linkage database. A shard may have
// several replicas serving identical data; the router prefers healthy
// ones and fails over between them.
type Replica interface {
	// QueryBatch executes a sub-batch against the replica.
	QueryBatch(ctx context.Context, reqs []fingerprint.QueryRequest) (*fingerprint.BatchResponse, error)
	// Healthz reports liveness.
	Healthz(ctx context.Context) error
	// Stats fetches the replica's serving counters.
	Stats(ctx context.Context) (*fingerprint.StatsResponse, error)
	// Addr names the replica for health reports and error messages.
	Addr() string
}

// IngestReplica is the optional write extension of Replica: a replica
// that accepts ingest batches. Both HTTPReplica and LocalReplica
// implement it; the router's write fan-out counts a replica that does
// not as a failed acknowledgment.
type IngestReplica interface {
	Replica
	// Ingest durably applies a batch of new linkages on the replica.
	Ingest(ctx context.Context, entries []fingerprint.IngestEntry) (*fingerprint.IngestResponse, error)
}

// SyncableReplica is the optional repair extension of Replica: a
// replica whose daemon runs the internal/cluster sync state machine.
// The router's anti-entropy repair loop drives such replicas back to
// consistency after a degradation; replicas without the extension (or
// whose daemons answer 404 — replication not enabled) are left to the
// write fan-out's best effort.
type SyncableReplica interface {
	Replica
	// SyncFrom nudges the replica to resync from peer (a base URL; empty
	// keeps the replica's configured source).
	SyncFrom(ctx context.Context, peer string) (*fingerprint.ReplStatus, error)
	// SyncStatus reports the replica's sync state machine.
	SyncStatus(ctx context.Context) (*fingerprint.ReplStatus, error)
}

// HTTPReplica reaches a shard daemon (caltrain-serve) over HTTP using
// the standard query protocol.
type HTTPReplica struct {
	base   string
	client *http.Client
}

// NewHTTPReplica constructs a replica for the daemon at baseURL.
// httpClient may be nil for http.DefaultClient.
func NewHTTPReplica(baseURL string, httpClient *http.Client) *HTTPReplica {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &HTTPReplica{base: baseURL, client: httpClient}
}

// Addr returns the replica's base URL.
func (r *HTTPReplica) Addr() string { return r.base }

// QueryBatch posts a sub-batch to the daemon's /query/batch.
func (r *HTTPReplica) QueryBatch(ctx context.Context, reqs []fingerprint.QueryRequest) (*fingerprint.BatchResponse, error) {
	payload, err := json.Marshal(fingerprint.BatchRequest{Queries: reqs})
	if err != nil {
		return nil, fmt.Errorf("shard: encode batch: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/query/batch", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var out fingerprint.BatchResponse
	if err := r.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ingest posts a batch of new linkages to the daemon's /ingest.
func (r *HTTPReplica) Ingest(ctx context.Context, entries []fingerprint.IngestEntry) (*fingerprint.IngestResponse, error) {
	payload, err := json.Marshal(fingerprint.IngestRequest{Entries: entries})
	if err != nil {
		return nil, fmt.Errorf("shard: encode ingest: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/ingest", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var out fingerprint.IngestResponse
	if err := r.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz checks the daemon's /healthz.
func (r *HTTPReplica) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return err
	}
	return r.do(req, &struct{}{})
}

// SyncFrom POSTs a /v1/repl/sync nudge to the daemon, telling its sync
// state machine to resync from peer.
func (r *HTTPReplica) SyncFrom(ctx context.Context, peer string) (*fingerprint.ReplStatus, error) {
	return cluster.SyncNudge(ctx, r.client, r.base, peer)
}

// SyncStatus fetches the daemon's /v1/repl/status.
func (r *HTTPReplica) SyncStatus(ctx context.Context) (*fingerprint.ReplStatus, error) {
	return cluster.SyncStatus(ctx, r.client, r.base)
}

// Stats fetches the daemon's /stats counters.
func (r *HTTPReplica) Stats(ctx context.Context) (*fingerprint.StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	var out fingerprint.StatsResponse
	if err := r.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StatusError is a non-200 reply from a replica: something answered,
// but refused the request. A 4xx means the replica is alive and the
// request itself is unacceptable — the router treats that as a
// definitive response (no cooldown, no failover: every replica of a
// shard serves the same data and limits, so a retry would be rejected
// the same way). A 5xx is a replica fault like any connection error:
// cooldown and failover apply.
type StatusError struct {
	Code int
	Msg  string
	// EnvCode is the stable wire-protocol code from the daemon's error
	// envelope, empty against a pre-envelope daemon.
	EnvCode string
}

// Error formats the rejection with the daemon's own message.
func (e *StatusError) Error() string { return fmt.Sprintf("status %d: %s", e.Code, e.Msg) }

// definitive reports whether the reply settles the request (4xx), as
// opposed to a server-side fault worth failing over (5xx).
func (e *StatusError) definitive() bool { return e.Code >= 400 && e.Code < 500 }

func (r *HTTPReplica) do(req *http.Request, out any) error {
	// Thread the router's request ID through to the shard daemon, so one
	// grep joins the router's and the owning shard's request logs.
	if id := obs.RequestIDFrom(req.Context()); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	// The RPC is a span of its own, and its context rides the wire as a
	// traceparent header — the daemon's middleware parents its whole span
	// tree under this span, joining the two processes' traces.
	ctx, span := obs.StartSpan(req.Context(), "rpc")
	span.SetAttr("replica", r.base)
	span.SetAttr("path", req.URL.Path)
	defer span.End()
	req = req.WithContext(ctx)
	if sc := obs.SpanContextFrom(ctx); sc.Valid() {
		req.Header.Set(obs.TraceParentHeader, sc.TraceParent())
	}
	resp, err := r.client.Do(req)
	if err != nil {
		span.SetError(err)
		return err
	}
	// Drain to EOF before Close so the Transport can reuse the
	// connection — the router makes one POST per shard per batch, and
	// losing keep-alive here means a fresh TCP dial every time.
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		// The body is the daemon's reason — the structured error envelope
		// on a /v1 daemon, plain http.Error text on a pre-/v1 one. Carry
		// the envelope's message (or a bounded raw snippet) into the
		// per-result error.
		env, msg := fingerprint.ReadErrorBody(resp.Body)
		serr := &StatusError{Code: resp.StatusCode, Msg: msg, EnvCode: env.Code}
		span.SetError(serr)
		return serr
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		err = fmt.Errorf("shard: decode %s response: %w", req.URL.Path, err)
		span.SetError(err)
		return err
	}
	return nil
}

// LocalReplica serves a shard from an in-process query service — no
// network hop. Session.RouterHandler and the scaling benchmarks shard
// this way.
type LocalReplica struct {
	name string
	svc  *fingerprint.Service
}

// NewLocalReplica wraps an in-process query service as a replica.
func NewLocalReplica(name string, svc *fingerprint.Service) *LocalReplica {
	return &LocalReplica{name: name, svc: svc}
}

// Addr returns the replica's configured name.
func (r *LocalReplica) Addr() string { return r.name }

// QueryBatch executes the sub-batch directly against the service. The
// context's trace (request ID, stage timings) carries through, so an
// in-process deployment traces like a networked one.
func (r *LocalReplica) QueryBatch(ctx context.Context, reqs []fingerprint.QueryRequest) (*fingerprint.BatchResponse, error) {
	return r.svc.RunBatchCtx(ctx, reqs), nil
}

// Ingest applies the batch directly through the service's write path.
// Errors carry the HTTP status the service would have written, so the
// router's quorum accounting treats local and HTTP replicas alike (a
// validation rejection is definitive, a store fault is not).
func (r *LocalReplica) Ingest(ctx context.Context, entries []fingerprint.IngestEntry) (*fingerprint.IngestResponse, error) {
	resp, err := r.svc.RunIngestCtx(ctx, entries)
	if err != nil {
		return nil, &StatusError{Code: fingerprint.IngestStatusCode(err), Msg: err.Error()}
	}
	return resp, nil
}

// Healthz always succeeds: an in-process service lives as long as the
// router.
func (r *LocalReplica) Healthz(context.Context) error { return nil }

// Stats snapshots the service's counters.
func (r *LocalReplica) Stats(context.Context) (*fingerprint.StatsResponse, error) {
	st := r.svc.StatsSnapshot()
	return &st, nil
}

// replicaState tracks one replica's health for failover ordering.
type replicaState struct {
	r  Replica
	mu sync.Mutex
	// fails counts consecutive failures; downUntil is the cooldown end
	// after which the replica is probed again.
	fails     int
	downUntil time.Time
	// downSince marks when the current failure streak began (zero while
	// the streak is clear). It survives cooldown expiry — a flapping
	// replica keeps its streak clock — and only a genuine success resets
	// it, so the repair loop's "degraded past the threshold" test sees
	// sustained trouble, not one blip.
	downSince time.Time
	// repairing marks an anti-entropy repair in flight so the scan loop
	// never starts a second one against the same replica.
	repairing bool
}

func (s *replicaState) healthy(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return now.After(s.downUntil) || s.downUntil.IsZero()
}

func (s *replicaState) markUp() {
	s.mu.Lock()
	s.fails = 0
	s.downUntil = time.Time{}
	s.downSince = time.Time{}
	s.mu.Unlock()
}

func (s *replicaState) markDown(now time.Time, base time.Duration) {
	s.mu.Lock()
	s.fails++
	if s.downSince.IsZero() {
		s.downSince = now
	}
	// Exponential cooldown, capped at 32× the base, so a dead replica
	// costs at most one probe per window instead of one per batch.
	backoff := base << min(s.fails-1, 5)
	s.downUntil = now.Add(backoff)
	s.mu.Unlock()
}

// degradedFor reports how long the replica's current failure streak has
// run, zero when it has none.
func (s *replicaState) degradedFor(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.downSince.IsZero() {
		return 0
	}
	return now.Sub(s.downSince)
}

// beginRepair claims the replica for one repair attempt; false when one
// is already in flight.
func (s *replicaState) beginRepair() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repairing {
		return false
	}
	s.repairing = true
	return true
}

func (s *replicaState) endRepair() {
	s.mu.Lock()
	s.repairing = false
	s.mu.Unlock()
}

func (s *replicaState) inRepair() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repairing
}

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
	maxBody     int64
	maxBatch    int
	writeQuorum int
	metaIngest  bool
	now         func() time.Time
	obsOpts     fingerprint.Observability

	start   time.Time
	queries atomic.Uint64
	batches atomic.Uint64
	ingests atomic.Uint64
	errs    atomic.Uint64
	latency *fingerprint.Histogram

	// cacheSize > 0 enables the single-query response cache; cache is
	// built in NewRouter once the shard count is known.
	cacheSize int
	cache     *responseCache

	// repairCfg != nil enables the anti-entropy repair loop; repair is
	// built in NewRouter and started by Serve (or RunRepairLoop).
	repairCfg *RepairOptions
	repair    *repairer

	errCodes *obs.CounterVec
	metrics  *obs.Registry
	// scrapeMu guards scrape, the shard-stat snapshot refreshed on every
	// /v1/metrics request so the per-shard gauges and the rolled-up
	// histogram read from one consistent fetch.
	scrapeMu sync.Mutex
	scrape   shardScrape

	bucketsUS []int64
}

// shardScrape is the router's cached view of its shards' /stats,
// refreshed at metrics-scrape time.
type shardScrape struct {
	// entries[sid] is shard sid's entry count, -1 while unreachable.
	entries []int64
	// merged is the MergeBins roll-up of the shards' latency histograms;
	// sumUS the summed latency sums. hasSum is false when no shard
	// reported a sum (pre-upgrade daemons, or no queries yet) so the
	// rolled-up histogram omits a _sum that would corrupt averages.
	merged      []fingerprint.HistogramBin
	sumUS       int64
	hasSum      bool
	unreachable int
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
func WithRouterMaxBodyBytes(n int64) RouterOption { return func(r *Router) { r.maxBody = n } }

// WithRouterMaxBatch bounds the number of queries in one batch request.
func WithRouterMaxBatch(n int) RouterOption { return func(r *Router) { r.maxBatch = n } }

// WithRouterLatencyBuckets replaces the router-level latency histogram
// bounds (microseconds). Default RouterLatencyBucketsUS.
func WithRouterLatencyBuckets(boundsUS []int64) RouterOption {
	return func(r *Router) { r.bucketsUS = boundsUS }
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
	return func(r *Router) { r.obsOpts = o }
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
		maxBody:    fingerprint.DefaultMaxBodyBytes,
		maxBatch:   fingerprint.DefaultMaxBatch,
		metaIngest: true,
		now:        time.Now,
		start:      time.Now(),
		bucketsUS:  RouterLatencyBucketsUS,
	}
	for _, o := range opts {
		o(r)
	}
	r.latency = fingerprint.NewHistogram(r.bucketsUS)
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
	r.scrape.entries = make([]int64, len(r.shards))
	for i := range r.scrape.entries {
		r.scrape.entries[i] = -1
	}
	if r.cacheSize > 0 {
		r.cache = newResponseCache(r.cacheSize, len(r.shards))
	}
	if r.repairCfg != nil {
		r.repair = newRepairer(r, *r.repairCfg)
	}
	r.errCodes = obs.NewCounterVec("caltrain_request_errors_total",
		"Error envelopes written, labeled by stable wire-protocol code.", "code")
	r.metrics = r.buildMetrics()
	return r, nil
}

// buildMetrics assembles the router's Prometheus registry: its own
// serving counters and latency histogram (same family names a single
// daemon exports, so dashboards work against either tier), plus the
// router-only shard topology gauges and the shard-latency roll-up read
// from the scrape cache handleMetrics refreshes.
func (r *Router) buildMetrics() *obs.Registry {
	reg := obs.NewRegistry()
	reg.MustRegister(
		obs.BuildInfoFamily(),
		obs.CounterFunc("caltrain_queries_total",
			"Queries routed, batched queries counted individually.",
			func() float64 { return float64(r.queries.Load()) }),
		obs.CounterFunc("caltrain_batch_requests_total",
			"Batch query requests served.",
			func() float64 { return float64(r.batches.Load()) }),
		obs.CounterFunc("caltrain_ingest_requests_total",
			"Ingest requests fanned out.",
			func() float64 { return float64(r.ingests.Load()) }),
		r.errCodes.Family(),
		obs.GaugeFunc("caltrain_uptime_seconds",
			"Seconds since the router started.",
			func() float64 { return time.Since(r.start).Seconds() }),
		obs.HistogramFunc("caltrain_query_latency_seconds",
			"Router-level request latency (scatter-gather included), cumulative in seconds.",
			func() obs.HistogramSnapshot {
				return fingerprint.PromHistogram(r.latency.Bins(), r.latency.SumUS(), true)
			}),
		obs.GaugeFunc("caltrain_router_shards",
			"Shards this router fans out across.",
			func() float64 { return float64(len(r.shards)) }),
		obs.GaugeFunc("caltrain_router_degraded_replicas",
			"Replicas currently in failure cooldown.",
			func() float64 {
				now := r.now()
				var n int
				for _, states := range r.shards {
					for _, s := range states {
						if !s.healthy(now) {
							n++
						}
					}
				}
				return float64(n)
			}),
		obs.GaugeFunc("caltrain_router_unreachable_shards",
			"Shards with no replica answering /stats at the last scrape.",
			func() float64 {
				r.scrapeMu.Lock()
				defer r.scrapeMu.Unlock()
				return float64(r.scrape.unreachable)
			}),
		obs.SamplesFunc("caltrain_shard_entries",
			"Entries served per shard, as of the last scrape; unreachable shards are absent.",
			obs.KindGauge, func() []obs.Sample {
				r.scrapeMu.Lock()
				entries := make([]int64, len(r.scrape.entries))
				copy(entries, r.scrape.entries)
				r.scrapeMu.Unlock()
				var out []obs.Sample
				for sid, n := range entries {
					if n < 0 {
						continue
					}
					out = append(out, obs.Sample{
						Labels: []obs.Label{{Name: "shard", Value: strconv.Itoa(sid)}},
						Value:  float64(n),
					})
				}
				return out
			}),
		obs.HistogramFunc("caltrain_shard_query_latency_seconds",
			"Shard-reported query latency rolled up across shards (MergeBins), as of the last scrape.",
			func() obs.HistogramSnapshot {
				r.scrapeMu.Lock()
				sc := r.scrape
				r.scrapeMu.Unlock()
				return fingerprint.PromHistogram(sc.merged, sc.sumUS, sc.hasSum)
			}),
	)
	if r.repair != nil {
		reg.MustRegister(r.repair.metricFamilies()...)
	}
	if r.cache != nil {
		reg.MustRegister(
			obs.CounterFunc("caltrain_router_cache_hits_total",
				"Single-query requests answered from the router's response cache.",
				func() float64 { return float64(r.cache.hits.Load()) }),
			obs.CounterFunc("caltrain_router_cache_misses_total",
				"Single-query cache lookups that missed (absent or invalidated by a write).",
				func() float64 { return float64(r.cache.misses.Load()) }),
		)
	}
	if fams := r.obsOpts.Tracer.MetricFamilies(); len(fams) > 0 {
		reg.MustRegister(fams...)
	}
	reg.MustRegister(obs.RuntimeFamilies()...)
	return reg
}

// handleMetrics refreshes the shard-stat scrape cache, then serves the
// registry — so the per-shard gauges a scrape reports are at most one
// shard-stats round trip old.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	results := r.fetchShardStats(req.Context())
	sc := shardScrape{entries: make([]int64, len(results))}
	var bins [][]fingerprint.HistogramBin
	for sid, res := range results {
		if res.err != nil {
			sc.entries[sid] = -1
			sc.unreachable++
			continue
		}
		sc.entries[sid] = int64(res.st.Entries)
		bins = append(bins, res.st.LatencyUS)
		sc.sumUS += res.st.LatencySumUS
	}
	if len(bins) > 0 {
		sc.merged = fingerprint.MergeBins(bins...)
	}
	// A zero summed sum is indistinguishable from pre-upgrade shards
	// that report none; omit _sum in both cases (harmless when there
	// were no observations, correct when there were).
	sc.hasSum = sc.sumUS > 0
	r.scrapeMu.Lock()
	r.scrape = sc
	r.scrapeMu.Unlock()
	r.metrics.ServeHTTP(w, req)
}

// NumShards returns how many shards the router fans out across.
func (r *Router) NumShards() int { return r.m.NumShards() }

// replicaOrder returns shard sid's replicas in the order every fan-out
// (queries, health probes, stats) tries them under its one shared shard
// timeout: healthy replicas first, configured order preserved within
// each class. Cooling-down replicas stay as a last resort, so a shard
// whose every replica recently failed is still probed rather than
// written off — but a hung replica the read path has already cooled
// down cannot eat the budget ahead of a live one.
func (r *Router) replicaOrder(sid int) []*replicaState {
	states := r.shards[sid]
	now := r.now()
	order := make([]*replicaState, 0, len(states))
	var down []*replicaState
	for _, s := range states {
		if s.healthy(now) {
			order = append(order, s)
		} else {
			down = append(down, s)
		}
	}
	return append(order, down...)
}

// callShard runs one sub-batch against shard sid, failing over between
// its replicas in health-aware order within the shard timeout. Only
// genuine replica faults (connection errors, timeouts, malformed
// replies) count toward replica health: an alive replica rejecting the
// request (StatusError) and the caller abandoning the request both
// leave cooldown state untouched.
func (r *Router) callShard(parent context.Context, sid int, sub []fingerprint.QueryRequest) (*fingerprint.BatchResponse, error) {
	ctx, cancel := context.WithTimeout(parent, r.timeout)
	defer cancel()
	var lastErr error
	for _, s := range r.replicaOrder(sid) {
		// One span per attempt, failover retries included, so a trace of a
		// slow query shows WHICH replica burned the time before another
		// answered.
		actx, attempt := obs.StartSpan(ctx, "shard_attempt")
		attempt.SetAttr("shard", strconv.Itoa(sid))
		attempt.SetAttr("replica", s.r.Addr())
		resp, err := s.r.QueryBatch(actx, sub)
		if err == nil && len(resp.Results) != len(sub) {
			err = fmt.Errorf("replica %s returned %d results for %d queries", s.r.Addr(), len(resp.Results), len(sub))
		}
		attempt.SetError(err)
		attempt.End()
		if err == nil {
			s.markUp()
			return resp, nil
		}
		var rejected *StatusError
		if errors.As(err, &rejected) && rejected.definitive() {
			// Alive but refused (e.g. the daemon's own -max-batch is lower
			// than the router's): a definitive answer, not a health event.
			// A 5xx falls through to cooldown + failover below.
			s.markUp()
			return nil, fmt.Errorf("replica %s rejected the sub-batch: %w", s.r.Addr(), err)
		}
		if parent.Err() != nil {
			// The caller went away (client disconnect, upstream deadline);
			// the replica did nothing wrong.
			return nil, parent.Err()
		}
		s.markDown(r.now(), r.cooldown)
		lastErr = err
		if ctx.Err() != nil {
			// The shard timeout is spent; further replicas would fail the
			// same way.
			break
		}
	}
	return nil, lastErr
}

// scatter routes every query to its owning shard, runs the per-shard
// sub-batches concurrently, and reassembles results in request order.
// Shards whose every replica fails surface as per-result errors plus an
// entry in the returned unreachable list ("shard N"); a shard that
// answered with a rejection yields per-result errors only — it was
// reached.
func (r *Router) scatter(ctx context.Context, reqs []fingerprint.QueryRequest) ([]fingerprint.BatchResult, []string) {
	_, route := obs.StartSpan(ctx, "route")
	byShard := make(map[int][]int)
	for i, q := range reqs {
		sid := r.m.Shard(q.Label)
		byShard[sid] = append(byShard[sid], i)
	}
	route.End()
	// The fan-out runs under one "scatter" span; per-shard attempt spans
	// (and, through propagation, the shard daemons' own trees) parent
	// under it via sctx.
	sctx, scatterSpan := obs.StartSpan(ctx, "scatter")
	scatterSpan.SetAttr("shards", strconv.Itoa(len(byShard)))
	defer scatterSpan.End()
	results := make([]fingerprint.BatchResult, len(reqs))
	var mu sync.Mutex
	var unreachable []string
	var wg sync.WaitGroup
	for sid, positions := range byShard {
		wg.Add(1)
		go func(sid int, positions []int) {
			defer wg.Done()
			sub := make([]fingerprint.QueryRequest, len(positions))
			for j, pos := range positions {
				sub[j] = reqs[pos]
			}
			resp, err := r.callShard(sctx, sid, sub)
			if err != nil {
				r.errs.Add(uint64(len(positions)))
				var rejected *StatusError
				msg := fmt.Sprintf("shard %d unreachable: %v", sid, err)
				code := fingerprint.ErrCodeShardUnreachable
				if errors.As(err, &rejected) && rejected.definitive() {
					// The shard answered; it just refused the request. Keep
					// the daemon's own envelope code (classified from the
					// status against a pre-envelope daemon).
					msg = fmt.Sprintf("shard %d: %v", sid, err)
					code = fingerprint.ClassifyStatus(rejected.Code, rejected.EnvCode)
				} else {
					mu.Lock()
					unreachable = append(unreachable, fmt.Sprintf("shard %d", sid))
					mu.Unlock()
				}
				for _, pos := range positions {
					results[pos] = fingerprint.BatchResult{Error: msg, Code: code}
				}
				return
			}
			for j, pos := range positions {
				results[pos] = resp.Results[j]
			}
		}(sid, positions)
	}
	wg.Wait()
	sort.Strings(unreachable)
	return results, unreachable
}

// Handler returns the router's HTTP handler: the same versioned wire
// protocol a single daemon serves (/v1/* plus the unversioned legacy
// aliases, from the shared fingerprint.RouteSet), answered by
// scatter-gather.
func (r *Router) Handler() http.Handler {
	rs := fingerprint.RouteSet{
		Query:         r.handleQuery,
		QueryBatch:    r.handleBatch,
		Ingest:        r.handleIngest,
		Healthz:       r.handleHealthz,
		Stats:         r.handleStats,
		Meta:          r.Meta,
		Observability: r.obsOpts,
	}
	if !r.obsOpts.DisableMetrics {
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
			Trace:   r.obsOpts.Tracer != nil,
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

func (r *Router) fail(w http.ResponseWriter, status int, code, format string, args ...any) {
	r.errs.Add(1)
	r.errCodes.Inc(code)
	fingerprint.WriteError(w, status, code, format, args...)
}

func (r *Router) decode(w http.ResponseWriter, req *http.Request, into any) bool {
	req.Body = http.MaxBytesReader(w, req.Body, r.maxBody)
	if err := json.NewDecoder(req.Body).Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			r.fail(w, http.StatusRequestEntityTooLarge, fingerprint.ErrCodeBodyTooLarge, "request body exceeds %d bytes", r.maxBody)
			return false
		}
		r.fail(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest, "bad request: %v", err)
		return false
	}
	return true
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	started := time.Now()
	r.queries.Add(1)
	var q fingerprint.QueryRequest
	if !r.decode(w, req, &q) {
		return
	}
	// Cache lookup keys on the exact request triple; the generation is
	// snapshotted BEFORE the scatter so a write landing mid-flight still
	// invalidates whatever this request caches afterwards.
	var (
		key cacheKey
		sid int
		gen uint64
	)
	if r.cache != nil {
		sid = r.m.Shard(q.Label)
		key = cacheKey{label: q.Label, fpHash: fingerprintHash(q.Fingerprint), k: q.K}
		_, lookup := obs.StartSpan(req.Context(), "cache_lookup")
		resp, ok := r.cache.get(key)
		lookup.SetAttr("hit", strconv.FormatBool(ok))
		lookup.End()
		if ok {
			r.latency.Observe(time.Since(started))
			writeJSON(w, resp)
			return
		}
		gen = r.cache.gen(sid)
	}
	results, unreachable := r.scatter(req.Context(), []fingerprint.QueryRequest{q})
	if len(unreachable) > 0 {
		// A single query has no partial result to return; the owning
		// shard being down is a gateway failure. scatter already counted
		// the error, so write the envelope directly (r.fail would double
		// count).
		r.errCodes.Inc(fingerprint.ErrCodeShardUnreachable)
		fingerprint.WriteError(w, http.StatusBadGateway, fingerprint.ErrCodeShardUnreachable, "%s", results[0].Error)
		return
	}
	if results[0].Error != "" {
		// The per-result code is the shard service's own classification
		// (limit_exceeded vs bad_request vs body_too_large), so a routed
		// rejection answers with the same envelope — code AND status — a
		// single daemon would.
		code := results[0].Code
		if code == "" {
			code = fingerprint.ErrCodeBadRequest
		}
		r.errCodes.Inc(code)
		fingerprint.WriteError(w, fingerprint.StatusForErrCode(code), code, "%s", results[0].Error)
		return
	}
	if r.cache != nil {
		r.cache.put(key, sid, gen, results[0].QueryResponse)
	}
	r.latency.Observe(time.Since(started))
	writeJSON(w, results[0].QueryResponse)
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	started := time.Now()
	r.batches.Add(1)
	var batch fingerprint.BatchRequest
	if !r.decode(w, req, &batch) {
		return
	}
	if len(batch.Queries) == 0 {
		r.fail(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest, "batch has no queries")
		return
	}
	if len(batch.Queries) > r.maxBatch {
		r.fail(w, http.StatusBadRequest, fingerprint.ErrCodeLimitExceeded, "batch of %d queries exceeds limit %d", len(batch.Queries), r.maxBatch)
		return
	}
	r.queries.Add(uint64(len(batch.Queries)))
	results, unreachable := r.scatter(req.Context(), batch.Queries)
	r.latency.Observe(time.Since(started))
	writeJSON(w, fingerprint.BatchResponse{Results: results, UnreachableShards: unreachable})
}

// quorumFor returns the acknowledgment count shard writes need out of
// n replicas.
func (r *Router) quorumFor(n int) int {
	if r.writeQuorum > 0 {
		return min(r.writeQuorum, n)
	}
	return n/2 + 1
}

// shardIngestResult is one shard's outcome of a fanned-out write.
type shardIngestResult struct {
	entries  int
	acked    int
	quorum   int
	rejected string   // non-empty: a replica definitively refused the batch (4xx)
	failed   []string // replicas that did not acknowledge
}

// ingestShard fans one shard's entries out to ALL of its replicas
// concurrently — writes replicate, they do not fail over — and counts
// acknowledgments against the write quorum. Replica faults feed the
// same health state the read path uses; a definitive rejection (4xx:
// the batch itself is unacceptable, every replica of the shard would
// refuse it the same way) aborts the shard without cooldowns.
func (r *Router) ingestShard(parent context.Context, sid int, entries []fingerprint.IngestEntry) shardIngestResult {
	ctx, cancel := context.WithTimeout(parent, r.timeout)
	defer cancel()
	states := r.shards[sid]
	res := shardIngestResult{entries: len(entries), quorum: r.quorumFor(len(states))}
	type ack struct {
		s        *replicaState
		err      error
		rejected bool
	}
	acks := make([]ack, len(states))
	var wg sync.WaitGroup
	for i, s := range states {
		wg.Add(1)
		go func(i int, s *replicaState) {
			defer wg.Done()
			actx, attempt := obs.StartSpan(ctx, "ingest_attempt")
			attempt.SetAttr("shard", strconv.Itoa(sid))
			attempt.SetAttr("replica", s.r.Addr())
			defer attempt.End()
			ir, ok := s.r.(IngestReplica)
			if !ok {
				// Same shape a read-only daemon answers with over HTTP,
				// so the accounting below treats both alike: alive, no
				// cooldown, no acknowledgment.
				serr := &StatusError{
					Code: http.StatusNotImplemented,
					Msg:  fmt.Sprintf("replica %s does not accept writes", s.r.Addr()),
				}
				attempt.SetError(serr)
				acks[i] = ack{s: s, err: serr}
				return
			}
			_, err := ir.Ingest(actx, entries)
			attempt.SetError(err)
			var rejected *StatusError
			if errors.As(err, &rejected) && rejected.definitive() {
				acks[i] = ack{s: s, err: err, rejected: true}
				return
			}
			acks[i] = ack{s: s, err: err}
		}(i, s)
	}
	wg.Wait()
	now := r.now()
	for _, a := range acks {
		switch {
		case a.rejected:
			// Alive but refused: a batch problem, not a health event.
			// Also a missed acknowledgment — if the rest of the shard
			// reaches quorum anyway, this replica is divergent, not
			// authoritative.
			a.s.markUp()
			res.rejected = a.err.Error()
			res.failed = append(res.failed, a.s.r.Addr())
		case a.err == nil:
			a.s.markUp()
			res.acked++
		default:
			// A read-only replica (501: no -wal) is alive and serving
			// queries; it just cannot take writes. Count it as a missed
			// acknowledgment without poisoning the read path's health
			// state with a cooldown.
			var se *StatusError
			if errors.As(a.err, &se) && se.Code == http.StatusNotImplemented {
				a.s.markUp()
			} else if parent.Err() == nil {
				a.s.markDown(now, r.cooldown)
			}
			res.failed = append(res.failed, a.s.r.Addr())
		}
	}
	sort.Strings(res.failed)
	return res
}

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	r.ingests.Add(1)
	var batch fingerprint.IngestRequest
	if !r.decode(w, req, &batch) {
		return
	}
	if len(batch.Entries) == 0 {
		r.fail(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest, "ingest batch has no entries")
		return
	}
	if len(batch.Entries) > r.maxBatch {
		r.fail(w, http.StatusBadRequest, fingerprint.ErrCodeLimitExceeded, "ingest batch of %d entries exceeds limit %d", len(batch.Entries), r.maxBatch)
		return
	}
	// Sub-batches apply atomically per shard, but a multi-shard request
	// is not globally atomic — so reject everything the router CAN
	// validate before any shard sees a byte. Only a mismatch against the
	// daemons' database dimension can still surface per-shard.
	if _, err := fingerprint.DecodeIngestEntries(batch.Entries); err != nil {
		r.fail(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest, "%v", err)
		return
	}
	dim0 := len(batch.Entries[0].Fingerprint)
	for i, e := range batch.Entries {
		if e.Label < 0 {
			r.fail(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest, "entry %d: label %d out of range", i, e.Label)
			return
		}
		if len(e.Fingerprint) != dim0 {
			r.fail(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest, "entry %d has %d dims, entry 0 has %d", i, len(e.Fingerprint), dim0)
			return
		}
		if len(e.Source) > 65535 {
			r.fail(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest, "entry %d: source of %d bytes exceeds 65535", i, len(e.Source))
			return
		}
	}
	byShard := make(map[int][]fingerprint.IngestEntry)
	for _, e := range batch.Entries {
		sid := r.m.Shard(e.Label)
		byShard[sid] = append(byShard[sid], e)
	}
	results := make(map[int]shardIngestResult, len(byShard))
	var mu sync.Mutex
	var wg sync.WaitGroup
	// The replication fan-out runs under one "replicate" span; per-replica
	// attempt spans parent under it via rctx.
	rctx, replicate := obs.StartSpan(req.Context(), "replicate")
	replicate.SetAttr("shards", strconv.Itoa(len(byShard)))
	for sid, entries := range byShard {
		wg.Add(1)
		go func(sid int, entries []fingerprint.IngestEntry) {
			defer wg.Done()
			res := r.ingestShard(rctx, sid, entries)
			mu.Lock()
			results[sid] = res
			mu.Unlock()
		}(sid, entries)
	}
	wg.Wait()
	replicate.End()
	if r.cache != nil {
		// Invalidate after the replicas applied the writes: cached
		// responses for the touched shards go stale in one generation
		// bump, and in-flight queries that raced the write stored a
		// pre-bump generation so their entries miss too.
		for sid := range byShard {
			r.cache.bump(sid)
		}
	}

	out := fingerprint.IngestResponse{}
	for sid, res := range results {
		switch {
		case res.acked >= res.quorum:
			// A met quorum is authoritative even if a divergent replica
			// rejected the sub-batch: the entries ARE durable on a
			// quorum, so reporting them failed would invite a
			// duplicating retry. The rejecting replica is listed as
			// degraded like any other non-acknowledger.
			out.Accepted += res.entries
			out.DegradedReplicas = append(out.DegradedReplicas, res.failed...)
		case res.rejected != "":
			// No quorum and a daemon validated and refused the
			// sub-batch (e.g. the deployment's database dimension
			// differs): a definitive failure for those entries, no
			// cooldowns.
			out.Failed += res.entries
			out.FailedShards = append(out.FailedShards, fmt.Sprintf("shard %d", sid))
			out.ShardErrors = append(out.ShardErrors, fmt.Sprintf("shard %d rejected the batch: %s", sid, res.rejected))
			r.errs.Add(uint64(res.entries))
		default:
			out.Failed += res.entries
			out.FailedShards = append(out.FailedShards, fmt.Sprintf("shard %d", sid))
			out.ShardErrors = append(out.ShardErrors,
				fmt.Sprintf("shard %d: %d of %d replicas acknowledged (quorum %d; failed: %s)",
					sid, res.acked, len(r.shards[sid]), res.quorum, strings.Join(res.failed, ", ")))
			r.errs.Add(uint64(res.entries))
		}
	}
	sort.Strings(out.FailedShards)
	sort.Strings(out.DegradedReplicas)
	sort.Strings(out.ShardErrors)
	writeJSON(w, out)
}

// HealthzResponse is the JSON body of the router's GET /healthz: 200
// when every shard has at least one live replica, 503 otherwise, with
// the dead shards named either way.
type HealthzResponse struct {
	Status            string   `json:"status"` // "ok" or "degraded"
	Shards            int      `json:"shards"`
	UnreachableShards []string `json:"unreachable_shards,omitempty"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	resp := HealthzResponse{Status: "ok", Shards: len(r.shards)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for sid := range r.shards {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			if r.probeShard(req.Context(), sid) != nil {
				mu.Lock()
				resp.UnreachableShards = append(resp.UnreachableShards, fmt.Sprintf("shard %d", sid))
				mu.Unlock()
			}
		}(sid)
	}
	wg.Wait()
	sort.Strings(resp.UnreachableShards)
	if len(resp.UnreachableShards) > 0 {
		resp.Status = "degraded"
		fingerprint.WriteJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, resp)
}

// probeShard reports nil if any replica of shard sid answers /healthz.
func (r *Router) probeShard(ctx context.Context, sid int) error {
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	var lastErr error
	for _, s := range r.replicaOrder(sid) {
		if err := s.r.Healthz(ctx); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no replicas")
	}
	return lastErr
}

// ShardStats is one shard's contribution to the router's aggregated
// GET /stats, as reported by the first replica that answered.
type ShardStats struct {
	ID      int    `json:"id"`
	Replica string `json:"replica"`
	fingerprint.StatsResponse
}

// StatsResponse is the JSON body of the router's GET /stats. The
// embedded fields mirror a single daemon's /stats — Entries is the sum
// over shards, Index is "router", LatencyUS the router-level
// (network-scale) histogram — so fingerprint.Client.Stats decodes it
// unchanged. Shards carries each shard's own counters and
// ShardLatencyUS their latency histograms rolled up bucket-by-bucket.
type StatsResponse struct {
	fingerprint.StatsResponse
	Shards            []ShardStats               `json:"shards"`
	ShardLatencyUS    []fingerprint.HistogramBin `json:"shard_latency_us,omitempty"`
	UnreachableShards []string                   `json:"unreachable_shards,omitempty"`
	// Repair reports the anti-entropy repair loop, present only when
	// WithRepair is configured.
	Repair *RepairStats `json:"repair,omitempty"`
}

// shardStatsResult is one shard's answer to a stats fan-out: its stats
// as reported by the first replica that answered, or the last error.
type shardStatsResult struct {
	st  ShardStats
	err error
}

// fetchShardStats asks every shard for /stats concurrently (first
// answering replica wins), bounded per shard by the shard timeout —
// the fan-out shared by the aggregated /stats and the /v1/metrics
// scrape refresh.
func (r *Router) fetchShardStats(ctx context.Context) []shardStatsResult {
	results := make([]shardStatsResult, len(r.shards))
	var wg sync.WaitGroup
	for sid := range r.shards {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, r.timeout)
			defer cancel()
			var lastErr error
			for _, s := range r.replicaOrder(sid) {
				st, err := s.r.Stats(ctx)
				if err == nil {
					results[sid] = shardStatsResult{st: ShardStats{ID: sid, Replica: s.r.Addr(), StatsResponse: *st}}
					return
				}
				lastErr = err
			}
			results[sid] = shardStatsResult{err: lastErr}
		}(sid)
	}
	wg.Wait()
	return results
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	out := StatsResponse{
		StatsResponse: fingerprint.StatsResponse{
			Index:          "router",
			UptimeSeconds:  time.Since(r.start).Seconds(),
			Queries:        r.queries.Load(),
			BatchRequests:  r.batches.Load(),
			IngestRequests: r.ingests.Load(),
			Errors:         r.errs.Load(),
			LatencyUS:      r.latency.Bins(),
			LatencySumUS:   r.latency.SumUS(),
		},
	}
	results := r.fetchShardStats(req.Context())
	var shardBins [][]fingerprint.HistogramBin
	var ingestAgg fingerprint.IngestStats
	var haveIngest bool
	for sid, res := range results {
		if res.err != nil {
			out.UnreachableShards = append(out.UnreachableShards, fmt.Sprintf("shard %d", sid))
			continue
		}
		out.Entries += res.st.Entries
		if out.Dim == 0 {
			out.Dim = res.st.Dim
		}
		out.Shards = append(out.Shards, res.st)
		shardBins = append(shardBins, res.st.LatencyUS)
		if ing := res.st.Ingest; ing != nil {
			// Aggregate the write path across shards: sums for the
			// counters, the worst case for drift and snapshot age (the
			// shard most overdue is the one a dashboard should page on),
			// and the oldest snapshot time.
			haveIngest = true
			ingestAgg.Accepted += ing.Accepted
			ingestAgg.WALBytes += ing.WALBytes
			ingestAgg.ReplayEntries += ing.ReplayEntries
			ingestAgg.Retrains += ing.Retrains
			ingestAgg.Segments += ing.Segments
			ingestAgg.Drift = max(ingestAgg.Drift, ing.Drift)
			ingestAgg.LastSnapshotAgeSeconds = max(ingestAgg.LastSnapshotAgeSeconds, ing.LastSnapshotAgeSeconds)
			if ing.LastSnapshotUnix > 0 &&
				(ingestAgg.LastSnapshotUnix == 0 || ing.LastSnapshotUnix < ingestAgg.LastSnapshotUnix) {
				ingestAgg.LastSnapshotUnix = ing.LastSnapshotUnix
			}
		}
	}
	if haveIngest {
		out.Ingest = &ingestAgg
	}
	if len(shardBins) > 0 {
		out.ShardLatencyUS = fingerprint.MergeBins(shardBins...)
	}
	if r.repair != nil {
		st := r.repair.stats()
		out.Repair = &st
	}
	sort.Strings(out.UnreachableShards)
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	fingerprint.WriteJSON(w, http.StatusOK, v)
}
