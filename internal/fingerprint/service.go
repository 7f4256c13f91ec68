package fingerprint

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caltrain/internal/kernel"
	"caltrain/internal/obs"
)

// Service exposes a nearest-neighbour Searcher over HTTP — the "online
// database" model users query with a misprediction's fingerprint and
// label (§IV-C). Only fingerprints, labels, sources and hashes are
// served: original training data never enter the service, so
// confidentiality is preserved (data are solicited from participants on
// demand afterwards).
//
// The service is built for production traffic: the backend is
// hot-swappable under an RWMutex (rebuild an index, swap it in without
// dropping queries), request sizes are bounded, and per-request counters
// plus a latency histogram are exported on /stats.
type Service struct {
	mu       sync.RWMutex
	searcher Searcher
	ingester Ingester

	maxBody   int64
	maxK      int
	maxBatch  int
	bucketsUS []int64
	obsOpts   Observability

	repl ReplRoutes

	start    time.Time
	queries  atomic.Uint64
	batches  atomic.Uint64
	ingests  atomic.Uint64
	errs     atomic.Uint64
	latency  *Histogram
	errCodes *obs.CounterVec
	metrics  *obs.Registry
}

// Service limits. Overridable per service with the With* options.
const (
	DefaultMaxBodyBytes = 8 << 20 // generous: one batch of ~1000 dim-2048 fingerprints
	DefaultMaxK         = 1024
	DefaultMaxBatch     = 256
)

// ServiceOption configures a Service.
type ServiceOption func(*Service)

// WithMaxBodyBytes bounds the accepted request body size.
func WithMaxBodyBytes(n int64) ServiceOption { return func(s *Service) { s.maxBody = n } }

// WithMaxK bounds the per-query neighbour count.
func WithMaxK(k int) ServiceOption { return func(s *Service) { s.maxK = k } }

// WithMaxBatch bounds the number of queries in one batch request.
func WithMaxBatch(n int) ServiceOption { return func(s *Service) { s.maxBatch = n } }

// WithLatencyBuckets replaces the latency histogram's bucket upper bounds
// (microseconds, ascending). The defaults (DefaultLatencyBucketsUS) are
// tuned for sub-millisecond local serving; a service fronting network
// hops — a scatter-gather router, a WAN deployment — should pass bounds
// matching its latency regime so observations don't all land in the
// overflow bucket.
func WithLatencyBuckets(boundsUS []int64) ServiceOption {
	return func(s *Service) { s.bucketsUS = boundsUS }
}

// WithObservability configures request logging, the slow-query
// threshold, and the metrics toggle. The zero value (the default) keeps
// request-ID propagation and /v1/metrics on with no logging.
func WithObservability(o Observability) ServiceOption {
	return func(s *Service) { s.obsOpts = o }
}

// Ingester is the pluggable write path behind POST /ingest — the
// counterpart of Searcher on the read side. internal/ingest.Store is
// the production implementation (WAL-backed, durable, drift-aware); the
// service stays read-only when none is configured.
type Ingester interface {
	// IngestBatch durably applies a batch of linkages, all-or-nothing:
	// a validation failure anywhere rejects the whole batch before any
	// entry is logged. It returns the number of entries applied.
	IngestBatch(ls []Linkage) (int, error)
	// IngestStats reports the write path's counters for /stats.
	IngestStats() IngestStats
}

// IngestStats is the write-path block of a /stats response.
type IngestStats struct {
	// Accepted counts entries durably applied since startup (replayed
	// entries excluded).
	Accepted uint64 `json:"accepted"`
	// WALBytes is the current size of the write-ahead log across all
	// live segments — the operator's cue that a snapshot is overdue.
	WALBytes int64 `json:"wal_bytes"`
	// ReplayEntries counts entries restored from the WAL at startup.
	ReplayEntries uint64 `json:"replay_entries"`
	// LastSnapshotUnix is the Unix time of the last snapshot+truncate
	// compaction, 0 if none has run this process.
	LastSnapshotUnix int64 `json:"last_snapshot_unix"`
	// Retrains counts background index retrain + hot-swap cycles
	// triggered by drift.
	Retrains uint64 `json:"retrains"`
	// Drift is the serving backend's current appended fraction (0 for
	// exact backends).
	Drift float64 `json:"drift"`
	// Segments is the number of live WAL segments.
	Segments int `json:"wal_segments,omitempty"`
	// LastSnapshotAgeSeconds is how long ago the last snapshot ran, 0
	// when none has run this process — the age form of
	// LastSnapshotUnix, so dashboards need no wall-clock math.
	LastSnapshotAgeSeconds float64 `json:"last_snapshot_age_seconds,omitempty"`
}

// WithIngester enables the write path: POST /ingest applies batches
// through ing, and /stats grows an "ingest" block.
func WithIngester(ing Ingester) ServiceOption {
	return func(s *Service) { s.ingester = ing }
}

// SetIngester enables the write path after construction — the daemon
// wiring order is service first (the ingest store hot-swaps through
// it), then the store, then this. Call before serving; it is not
// synchronized against in-flight requests. A replicated deployment
// installs one long-lived Ingester (the cluster Syncer) exactly once
// and swaps stores inside it, so this is never called at runtime.
func (s *Service) SetIngester(ing Ingester) { s.ingester = ing }

// ReplRoutes is the set of replication endpoint handlers a cluster
// subsystem hangs on a Service (internal/cluster provides them).
type ReplRoutes struct {
	Snapshot http.HandlerFunc // GET  /v1/repl/snapshot
	WAL      http.HandlerFunc // GET  /v1/repl/wal
	Sync     http.HandlerFunc // POST /v1/repl/sync
	Status   http.HandlerFunc // GET  /v1/repl/status
}

// SetReplRoutes mounts the replication endpoints on the next Handler
// call and flips the meta capability. Like SetIngester, call before
// serving.
func (s *Service) SetReplRoutes(rr ReplRoutes) { s.repl = rr }

// MustRegisterMetrics adds metric families to the service's registry —
// how the replication subsystem exposes its sync gauges on the same
// /v1/metrics scrape. Safe after construction (the registry
// serializes), but families must not duplicate existing names.
func (s *Service) MustRegisterMetrics(fams ...*obs.Family) {
	for _, f := range fams {
		s.metrics.MustRegister(f)
	}
}

// NewService serves the linkage database itself (exact linear scan) —
// the zero-setup path. Production deployments wrap an index backend with
// NewSearcherService or swap one in with SetSearcher.
func NewService(db *DB, opts ...ServiceOption) *Service {
	return NewSearcherService(db, opts...)
}

// NewSearcherService serves queries through any Searcher backend.
func NewSearcherService(sr Searcher, opts ...ServiceOption) *Service {
	s := &Service{
		searcher:  sr,
		maxBody:   DefaultMaxBodyBytes,
		maxK:      DefaultMaxK,
		maxBatch:  DefaultMaxBatch,
		bucketsUS: DefaultLatencyBucketsUS,
		start:     time.Now(),
	}
	for _, o := range opts {
		o(s)
	}
	s.latency = NewHistogram(s.bucketsUS)
	s.errCodes = obs.NewCounterVec("caltrain_request_errors_total",
		"Error envelopes written, labeled by stable wire-protocol code.", "code")
	s.metrics = s.buildMetrics()
	return s
}

// buildMetrics assembles the daemon's Prometheus registry. Every family
// reads the existing serving counters at scrape time; the ingest
// families collect nothing (and so vanish from the exposition) on a
// read-only daemon.
func (s *Service) buildMetrics() *obs.Registry {
	reg := obs.NewRegistry()
	reg.MustRegister(
		obs.BuildInfoFamily(),
		obs.CounterFunc("caltrain_queries_total",
			"Queries served, batched queries counted individually.",
			func() float64 { return float64(s.queries.Load()) }),
		obs.CounterFunc("caltrain_batch_requests_total",
			"Batch query requests served.",
			func() float64 { return float64(s.batches.Load()) }),
		obs.CounterFunc("caltrain_ingest_requests_total",
			"Ingest requests served.",
			func() float64 { return float64(s.ingests.Load()) }),
		s.errCodes.Family(),
		obs.GaugeFunc("caltrain_entries",
			"Entries in the serving backend.",
			func() float64 { return float64(s.Searcher().Len()) }),
		obs.GaugeFunc("caltrain_uptime_seconds",
			"Seconds since the daemon started.",
			func() float64 { return time.Since(s.start).Seconds() }),
		obs.HistogramFunc("caltrain_query_latency_seconds",
			"Request latency, the /stats histogram re-emitted cumulatively in seconds.",
			func() obs.HistogramSnapshot {
				return PromHistogram(s.latency.Bins(), s.latency.SumUS())
			}),
	)
	// One gauge/counter per write-path stat, suppressed when the daemon
	// has no ingester so a read-only daemon's scrape reports no WAL.
	ing := func(fn func(IngestStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			if s.ingester == nil {
				return nil
			}
			return []obs.Sample{{Value: fn(s.ingester.IngestStats())}}
		}
	}
	reg.MustRegister(
		obs.SamplesFunc("caltrain_wal_bytes",
			"Bytes across all live WAL segments — the cue that a snapshot is overdue.",
			obs.KindGauge, ing(func(st IngestStats) float64 { return float64(st.WALBytes) })),
		obs.SamplesFunc("caltrain_wal_segments",
			"Live WAL segments.",
			obs.KindGauge, ing(func(st IngestStats) float64 { return float64(st.Segments) })),
		obs.SamplesFunc("caltrain_ingest_accepted_total",
			"Entries durably applied since startup (replay excluded).",
			obs.KindCounter, ing(func(st IngestStats) float64 { return float64(st.Accepted) })),
		obs.SamplesFunc("caltrain_ingest_replayed_entries",
			"Entries restored from the WAL at startup.",
			obs.KindGauge, ing(func(st IngestStats) float64 { return float64(st.ReplayEntries) })),
		obs.SamplesFunc("caltrain_ingest_retrains_total",
			"Background index retrain and hot-swap cycles.",
			obs.KindCounter, ing(func(st IngestStats) float64 { return float64(st.Retrains) })),
		obs.SamplesFunc("caltrain_index_drift",
			"Serving backend's appended fraction since its last (re)train.",
			obs.KindGauge, ing(func(st IngestStats) float64 { return st.Drift })),
		obs.SamplesFunc("caltrain_last_snapshot_age_seconds",
			"Seconds since the last snapshot+truncate compaction; absent before the first.",
			obs.KindGauge, func() []obs.Sample {
				if s.ingester == nil {
					return nil
				}
				st := s.ingester.IngestStats()
				if st.LastSnapshotUnix == 0 {
					return nil
				}
				return []obs.Sample{{Value: st.LastSnapshotAgeSeconds}}
			}),
	)
	if fams := s.obsOpts.Tracer.MetricFamilies(); len(fams) > 0 {
		reg.MustRegister(fams...)
	}
	reg.MustRegister(obs.RuntimeFamilies()...)
	return reg
}

// PromHistogram converts the per-bucket /stats bins (microsecond
// bounds, overflow bin LeUS == -1 last) into the cumulative
// seconds-based snapshot the Prometheus exposition requires.
func PromHistogram(bins []HistogramBin, sumUS int64) obs.HistogramSnapshot {
	snap := obs.HistogramSnapshot{Sum: float64(sumUS) / 1e6}
	var cum uint64
	for _, b := range bins {
		cum += b.Count
		if b.LeUS == -1 {
			continue
		}
		snap.Buckets = append(snap.Buckets, obs.Bucket{UpperBound: float64(b.LeUS) / 1e6, Count: cum})
	}
	snap.Count = cum
	return snap
}

// SetSearcher hot-swaps the serving backend. In-flight queries finish on
// the backend they started with; new queries see the new one.
func (s *Service) SetSearcher(sr Searcher) {
	s.mu.Lock()
	s.searcher = sr
	s.mu.Unlock()
}

// Searcher returns the current serving backend.
func (s *Service) Searcher() Searcher {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.searcher
}

// QueryRequest is the JSON body of a POST /query and one element of a
// batch request.
type QueryRequest struct {
	Fingerprint []float32 `json:"fingerprint"`
	Label       int       `json:"label"`
	K           int       `json:"k"`
}

// MatchJSON is one result row in a QueryResponse.
type MatchJSON struct {
	Index    int     `json:"index"`
	Source   string  `json:"source"`
	Label    int     `json:"label"`
	Hash     string  `json:"hash"`
	Distance float64 `json:"distance"`
}

// QueryResponse is the JSON body of a successful query.
type QueryResponse struct {
	Matches []MatchJSON    `json:"matches"`
	Sources map[string]int `json:"sources"`
}

// BatchRequest is the JSON body of a POST /query/batch.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchResult is one element of a BatchResponse: either a response or a
// per-query error. A bad query in a batch fails alone, not the batch.
type BatchResult struct {
	*QueryResponse
	Error string `json:"error,omitempty"`
	// Code is the stable wire-protocol code classifying Error (one of
	// the ErrCode constants), empty on success. It survives routing: a
	// shard's per-result rejection keeps its code through the router.
	Code string `json:"code,omitempty"`
}

// BatchResponse is the JSON body of a POST /query/batch reply.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	// UnreachableShards names shards a routed batch could not reach
	// (internal/shard): their queries carry per-result errors and the
	// batch is partial rather than failed. Always empty when a single
	// daemon answers directly.
	UnreachableShards []string `json:"unreachable_shards,omitempty"`
}

// IngestEntry is one linkage in a POST /ingest batch — the write-side
// counterpart of QueryRequest.
type IngestEntry struct {
	Fingerprint []float32 `json:"fingerprint"`
	Label       int       `json:"label"`
	Source      string    `json:"source"`
	// Hash is the hex SHA-256 content digest (64 chars), or empty.
	Hash string `json:"hash,omitempty"`
}

// IngestRequest is the JSON body of a POST /ingest.
type IngestRequest struct {
	Entries []IngestEntry `json:"entries"`
}

// IngestResponse is the JSON body of a POST /ingest reply. A single
// daemon fills Accepted and Entries; a routed ingest (internal/shard)
// additionally reports partial failure, mirroring the read path's
// unreachable_shards degradation.
type IngestResponse struct {
	// Accepted counts entries durably applied (on a routed ingest:
	// acknowledged by a write quorum of their shard's replicas).
	Accepted int `json:"accepted"`
	// Entries is the daemon's total entry count after the batch (0 in
	// routed responses; shards count independently).
	Entries int `json:"entries,omitempty"`
	// Failed counts entries whose owning shard could not reach quorum:
	// they are not durably accepted. A minority of replicas may still
	// have applied them, so a verbatim retry can duplicate entries on
	// those replicas until they are resynced from a snapshot (batch
	// idempotency keys are a known follow-up; see ROADMAP).
	Failed int `json:"failed,omitempty"`
	// FailedShards names the shards that missed quorum ("shard 2").
	FailedShards []string `json:"failed_shards,omitempty"`
	// DegradedReplicas names replicas that missed a batch their shard
	// quorum-acknowledged: they serve stale data until resynced from a
	// snapshot.
	DegradedReplicas []string `json:"degraded_replicas,omitempty"`
	// ShardErrors carries one message per failed shard explaining the
	// failure (quorum shortfall, or a per-daemon validation rejection
	// the router could not pre-check).
	ShardErrors []string `json:"shard_errors,omitempty"`
}

// StatsResponse is the JSON body of GET /stats.
type StatsResponse struct {
	Entries        int            `json:"entries"`
	Dim            int            `json:"dim"`
	Index          string         `json:"index"`
	UptimeSeconds  float64        `json:"uptime_seconds"`
	Queries        uint64         `json:"queries"`
	BatchRequests  uint64         `json:"batch_requests"`
	IngestRequests uint64         `json:"ingest_requests,omitempty"`
	Errors         uint64         `json:"errors"`
	LatencyUS      []HistogramBin `json:"latency_us"`
	// LatencySumUS is the sum of all observed latencies (microseconds),
	// so rates and averages derive without bucket interpolation.
	LatencySumUS int64 `json:"latency_sum_us,omitempty"`
	// Ingest carries the write path's counters when the daemon has one
	// (started with -wal).
	Ingest *IngestStats `json:"ingest,omitempty"`
	// LinkageResidentBytes is the caltrain_linkage_resident_bytes gauge
	// family by its part label: what the linkages cost resident in the
	// database's rows, provenance and class index, and in the index.
	LinkageResidentBytes map[string]int64 `json:"linkage_resident_bytes,omitempty"`
}

// ResidentBytesMetric names the gauge family StatsSnapshot re-reports as
// StatsResponse.LinkageResidentBytes; the deployment that knows the
// database declares it through MustRegisterMetrics.
const ResidentBytesMetric = "caltrain_linkage_resident_bytes"

// HistogramBin is one cumulative-style latency bucket: Count queries took
// at most LeUS microseconds (the final bin has LeUS == -1, meaning +Inf).
type HistogramBin struct {
	LeUS  int64  `json:"le_us"`
	Count uint64 `json:"count"`
}

// DefaultLatencyBucketsUS is the default latency-bucket upper bounds
// (microseconds), tuned for sub-millisecond in-process index scans. Treat
// it as read-only; pass WithLatencyBuckets to change a service's bounds.
var DefaultLatencyBucketsUS = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10_000, 25_000, 50_000, 100_000}

// Histogram is a fixed-bucket latency histogram with lock-free atomic
// counters, safe for concurrent Observe and Bins.
type Histogram struct {
	boundsUS []int64
	counts   []atomic.Uint64 // len(boundsUS) + overflow
	sumUS    atomic.Int64
}

// NewHistogram creates a histogram with the given bucket upper bounds
// (microseconds). Bounds are sorted, deduplicated, and stripped of
// non-positive values; nil or empty falls back to
// DefaultLatencyBucketsUS.
func NewHistogram(boundsUS []int64) *Histogram {
	cleaned := make([]int64, 0, len(boundsUS))
	for _, b := range boundsUS {
		if b > 0 {
			cleaned = append(cleaned, b)
		}
	}
	if len(cleaned) == 0 {
		cleaned = append(cleaned, DefaultLatencyBucketsUS...)
	}
	sort.Slice(cleaned, func(i, j int) bool { return cleaned[i] < cleaned[j] })
	dedup := cleaned[:1]
	for _, b := range cleaned[1:] {
		if b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	return &Histogram{boundsUS: dedup, counts: make([]atomic.Uint64, len(dedup)+1)}
}

// Observe records one duration in the owning bucket and the sum.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	h.sumUS.Add(us)
	for i, b := range h.boundsUS {
		if us <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.boundsUS)].Add(1)
}

// SumUS returns the sum of all observed durations in microseconds.
func (h *Histogram) SumUS() int64 { return h.sumUS.Load() }

// Bins snapshots the histogram as cumulative-style buckets, the overflow
// bucket (LeUS == -1) last.
func (h *Histogram) Bins() []HistogramBin {
	out := make([]HistogramBin, len(h.boundsUS)+1)
	for i, b := range h.boundsUS {
		out[i] = HistogramBin{LeUS: b, Count: h.counts[i].Load()}
	}
	out[len(h.boundsUS)] = HistogramBin{LeUS: -1, Count: h.counts[len(h.boundsUS)].Load()}
	return out
}

// ParseLatencyBuckets turns a comma-separated list of durations
// ("250us,1ms,5ms,1s") into ascending microsecond bucket bounds — the
// format of the serving daemons' -latency-buckets flag.
func ParseLatencyBuckets(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("fingerprint: bad latency bucket %q: %w", part, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("fingerprint: latency bucket %q is not positive", part)
		}
		out = append(out, d.Microseconds())
	}
	if len(out) == 0 {
		return nil, errors.New("fingerprint: no latency buckets given")
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// MergeBins sums histogram bins across services bucket-by-bucket — how a
// router rolls shard-reported latency histograms into one aggregate. Sets
// with differing bounds merge into the union of bounds, each count kept
// at its own upper bound: the "at most LeUS" reading stays true, but a
// count from a coarser histogram keeps its coarse bound rather than
// being redistributed (sub-bound resolution cannot be recovered). The
// roll-up is exact when every service shares one bounds configuration —
// run all shard daemons of a deployment with the same -latency-buckets.
// The overflow bucket (LeUS == -1) stays last.
func MergeBins(sets ...[]HistogramBin) []HistogramBin {
	byBound := make(map[int64]uint64)
	for _, set := range sets {
		for _, bin := range set {
			byBound[bin.LeUS] += bin.Count
		}
	}
	bounds := make([]int64, 0, len(byBound))
	for b := range byBound {
		if b != -1 {
			bounds = append(bounds, b)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	out := make([]HistogramBin, 0, len(bounds)+1)
	for _, b := range bounds {
		out = append(out, HistogramBin{LeUS: b, Count: byBound[b]})
	}
	out = append(out, HistogramBin{LeUS: -1, Count: byBound[-1]})
	return out
}

// Handler returns the HTTP handler serving the versioned wire protocol
// (POST /v1/query, POST /v1/query/batch, POST /v1/ingest, GET
// /v1/healthz, GET /v1/stats, GET /v1/meta) from the shared RouteSet.
func (s *Service) Handler() http.Handler {
	rs := RouteSet{
		Query:         s.handleQuery,
		QueryBatch:    s.handleBatch,
		Ingest:        s.handleIngest,
		Healthz:       s.handleHealthz,
		Stats:         s.handleStats,
		Meta:          s.Meta,
		Observability: s.obsOpts,
		ReplSnapshot:  s.repl.Snapshot,
		ReplWAL:       s.repl.WAL,
		ReplSync:      s.repl.Sync,
		ReplStatus:    s.repl.Status,
	}
	if !s.obsOpts.DisableMetrics {
		rs.Metrics = s.metrics.ServeHTTP
	}
	return rs.Handler()
}

// Meta reports the daemon's /v1/meta identity: the current backend kind
// and whether a write path is configured.
func (s *Service) Meta() MetaResponse {
	return MetaResponse{
		Server:   ServerVersion,
		Protocol: ProtocolVersion,
		Backend:  s.Searcher().Kind(),
		Capabilities: MetaCapabilities{
			Ingest:      s.ingester != nil,
			Sharded:     false,
			Trace:       s.obsOpts.Tracer != nil,
			Replication: s.repl.Snapshot != nil,
		},
		Build: obs.Build(),
	}
}

func (s *Service) fail(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.errs.Add(1)
	s.errCodes.Inc(code)
	WriteError(w, status, code, format, args...)
}

// queryErrCode classifies a runQuery failure for the error envelope: a
// k over the service limit is a limit violation, anything else (dim
// mismatch, negative k) a bad request.
func queryErrCode(req QueryRequest, maxK int) string {
	if req.K > maxK {
		return ErrCodeLimitExceeded
	}
	return ErrCodeBadRequest
}

// runQuery executes one query against sr — the backend its caller read
// once, with s.Searcher(), for everything it does on this request —
// enforcing the k limit. The service's read lock covers only that
// pointer fetch: a snapshot backend is immutable, so queries proceed
// lock-free while SetSearcher swaps the pointer.
func (s *Service) runQuery(sr Searcher, req QueryRequest) (*QueryResponse, error) {
	if req.K > s.maxK {
		return nil, fmt.Errorf("k %d exceeds limit %d", req.K, s.maxK)
	}
	matches, err := sr.Search(Fingerprint(req.Fingerprint), req.Label, req.K)
	if err != nil {
		return nil, err
	}
	return matchesResponse(matches), nil
}

// matchesResponse converts backend matches to the wire form shared by
// the single-query and batched paths.
func matchesResponse(matches []Match) *QueryResponse {
	resp := &QueryResponse{Sources: SourcesOf(matches), Matches: make([]MatchJSON, len(matches))}
	for i, m := range matches {
		resp.Matches[i] = MatchJSON{
			Index:    m.Index,
			Source:   m.Source,
			Label:    m.Label,
			Hash:     hex.EncodeToString(m.Hash[:]),
			Distance: m.Distance,
		}
	}
	return resp
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.queries.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge, "request body exceeds %d bytes", s.maxBody)
			return
		}
		s.fail(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request: %v", err)
		return
	}
	sr := s.Searcher()
	_, span := obs.StartSpan(r.Context(), "search")
	span.SetAttr("backend", sr.Kind())
	span.SetAttr("kernel", kernel.Active())
	resp, err := s.runQuery(sr, req)
	span.SetError(err)
	span.End()
	if err != nil {
		s.fail(w, http.StatusBadRequest, queryErrCode(req, s.maxK), "%v", err)
		return
	}
	s.latency.Observe(time.Since(started))
	writeJSON(w, resp)
}

// RunBatch executes a batch of queries against the current backend,
// bypassing HTTP — the in-process path a local shard replica serves. Each
// query succeeds or fails independently; counters and the latency
// histogram are updated exactly as for a POST /query/batch.
func (s *Service) RunBatch(reqs []QueryRequest) *BatchResponse {
	return s.RunBatchCtx(context.Background(), reqs)
}

// RunBatchCtx is RunBatch with a caller-supplied context: the index
// search is recorded as a "search" stage on the context's trace, so a
// routed batch's request log attributes time to the search itself.
//
// When the serving backend implements BatchSearcher (every index
// backend does), the whole batch goes down in ONE call: queries sharing
// a label are answered together, by a single blocked sweep of the
// label's vectors or of its centroid table, instead of one scan per
// query. The backend pointer is read once, here, so the entire batch —
// the per-query loop a backend without SearchBatch gets included — is
// answered by one snapshot even while SetSearcher hot-swaps
// concurrently. Results, error codes, and /stats counters are identical
// to the per-query path.
func (s *Service) RunBatchCtx(ctx context.Context, reqs []QueryRequest) *BatchResponse {
	started := time.Now()
	s.batches.Add(1)
	s.queries.Add(uint64(len(reqs)))
	sr := s.Searcher()
	_, span := obs.StartSpan(ctx, "search")
	span.SetAttr("backend", sr.Kind())
	span.SetAttr("kernel", kernel.Active())
	span.SetAttr("batch", strconv.Itoa(len(reqs)))
	defer span.End()
	out := &BatchResponse{Results: make([]BatchResult, len(reqs))}
	if bs, ok := sr.(BatchSearcher); ok && len(reqs) > 1 {
		s.runBatchSearch(bs, reqs, out)
	} else {
		for i, q := range reqs {
			resp, err := s.runQuery(sr, q)
			if err != nil {
				// Per-query failures count toward /stats errors just like
				// failures on /query, even though the batch itself is a 200.
				s.errs.Add(1)
				s.errCodes.Inc(queryErrCode(q, s.maxK))
				out.Results[i] = BatchResult{Error: err.Error(), Code: queryErrCode(q, s.maxK)}
				continue
			}
			out.Results[i] = BatchResult{QueryResponse: resp}
		}
	}
	s.latency.Observe(time.Since(started))
	return out
}

// runBatchSearch answers reqs through the backend's batched path.
// Queries over the k limit fail up front without reaching the backend;
// backend-side rejections (dim mismatch) keep per-query independence
// and map to the same stable error codes the per-query path produces.
func (s *Service) runBatchSearch(bs BatchSearcher, reqs []QueryRequest, out *BatchResponse) {
	fs := make([]Fingerprint, 0, len(reqs))
	labels := make([]int, 0, len(reqs))
	ks := make([]int, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, q := range reqs {
		if q.K > s.maxK {
			s.errs.Add(1)
			s.errCodes.Inc(ErrCodeLimitExceeded)
			out.Results[i] = BatchResult{
				Error: fmt.Sprintf("k %d exceeds limit %d", q.K, s.maxK),
				Code:  ErrCodeLimitExceeded,
			}
			continue
		}
		fs = append(fs, Fingerprint(q.Fingerprint))
		labels = append(labels, q.Label)
		ks = append(ks, q.K)
		idx = append(idx, i)
	}
	if len(fs) == 0 {
		return
	}
	results, errs := bs.SearchBatch(fs, labels, ks)
	for j, i := range idx {
		if err := errs[j]; err != nil {
			s.errs.Add(1)
			s.errCodes.Inc(queryErrCode(reqs[i], s.maxK))
			out.Results[i] = BatchResult{Error: err.Error(), Code: queryErrCode(reqs[i], s.maxK)}
			continue
		}
		out.Results[i] = BatchResult{QueryResponse: matchesResponse(results[j])}
	}
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge, "request body exceeds %d bytes", s.maxBody)
			return
		}
		s.fail(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, http.StatusBadRequest, ErrCodeBadRequest, "batch has no queries")
		return
	}
	if ae := s.BatchLimit(len(req.Queries)); ae != nil {
		s.fail(w, ae.Status, ae.Code, "%s", ae.Message)
		return
	}
	writeJSON(w, s.RunBatchCtx(r.Context(), req.Queries))
}

// BatchLimit returns the rejection POST /v1/query/batch answers a batch
// of n queries with when n is over the service's limit, nil within it —
// shared with shard.LocalReplica, so a sub-batch an in-process shard
// refuses is refused exactly as its daemon would over HTTP.
func (s *Service) BatchLimit(n int) *APIError {
	if n <= s.maxBatch {
		return nil
	}
	return &APIError{Status: http.StatusBadRequest, Code: ErrCodeLimitExceeded,
		Message: fmt.Sprintf("batch of %d queries exceeds limit %d", n, s.maxBatch)}
}

// DecodeIngestEntries converts the wire form of an ingest batch into
// linkages, validating the hex hashes. The dimension and label checks
// happen in the Ingester so the whole batch is vetted before any entry
// is logged.
func DecodeIngestEntries(entries []IngestEntry) ([]Linkage, error) {
	ls := make([]Linkage, len(entries))
	for i, e := range entries {
		l := Linkage{F: Fingerprint(e.Fingerprint), Y: e.Label, S: e.Source}
		if e.Hash != "" {
			raw, err := hex.DecodeString(e.Hash)
			if err != nil || len(raw) != 32 {
				return nil, fmt.Errorf("%w: entry %d %q", ErrBadHash, i, e.Hash)
			}
			copy(l.H[:], raw)
		}
		ls[i] = l
	}
	return ls, nil
}

// ErrIngestDisabled is returned by RunIngest on a read-only daemon (no
// Ingester configured).
var ErrIngestDisabled = errors.New("ingest not enabled on this daemon")

// IngestError types a RunIngest error as the reply POST /v1/ingest
// answers it with: 501 for a read-only daemon, 400 for a batch the
// daemon validated and refused (every replica of its shard would refuse
// it identically), 500 for daemon-side faults (WAL I/O). A
// shard.LocalReplica returns the same value, so local and HTTP replicas
// degrade identically.
func IngestError(err error) *APIError {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrIngestDisabled):
		status = http.StatusNotImplemented
	case errors.Is(err, ErrDimMismatch), errors.Is(err, ErrBadLabel),
		errors.Is(err, ErrBadSource), errors.Is(err, ErrBadHash):
		status = http.StatusBadRequest
	}
	return &APIError{Status: status, Code: ErrCodeForStatus(status), Message: err.Error()}
}

// RunIngest applies an ingest batch through the configured Ingester,
// bypassing HTTP — the in-process path a local shard replica writes
// through. The batch is all-or-nothing: any validation failure rejects
// it before the WAL sees a byte.
func (s *Service) RunIngest(entries []IngestEntry) (*IngestResponse, error) {
	return s.RunIngestCtx(context.Background(), entries)
}

// ctxIngester is the optional context-taking extension of Ingester:
// internal/ingest.Store implements it to record the WAL append as a
// trace stage from inside the write lock.
type ctxIngester interface {
	IngestBatchCtx(ctx context.Context, ls []Linkage) (int, error)
}

// RunIngestCtx is RunIngest with a caller-supplied context: the durable
// apply is recorded as a "wal_append" stage on the context's trace.
func (s *Service) RunIngestCtx(ctx context.Context, entries []IngestEntry) (*IngestResponse, error) {
	if s.ingester == nil {
		return nil, ErrIngestDisabled
	}
	s.ingests.Add(1)
	ls, err := DecodeIngestEntries(entries)
	if err != nil {
		s.errs.Add(1)
		return nil, err
	}
	var accepted int
	if ci, ok := s.ingester.(ctxIngester); ok {
		accepted, err = ci.IngestBatchCtx(ctx, ls)
	} else {
		_, span := obs.StartSpan(ctx, "wal_append")
		accepted, err = s.ingester.IngestBatch(ls)
		span.SetError(err)
		span.End()
	}
	if err != nil {
		s.errs.Add(1)
		return nil, err
	}
	return &IngestResponse{Accepted: accepted, Entries: s.Searcher().Len()}, nil
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.ingester == nil {
		// Not an error counter event: a read-only daemon is a valid
		// deployment, the client just asked the wrong tier.
		WriteError(w, http.StatusNotImplemented, ErrCodeIngestDisabled,
			"ingest not enabled on this daemon (start caltrain-serve with -wal)")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge, "request body exceeds %d bytes", s.maxBody)
			return
		}
		s.fail(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request: %v", err)
		return
	}
	if len(req.Entries) == 0 {
		s.fail(w, http.StatusBadRequest, ErrCodeBadRequest, "ingest batch has no entries")
		return
	}
	if len(req.Entries) > s.maxBatch {
		s.fail(w, http.StatusBadRequest, ErrCodeLimitExceeded, "ingest batch of %d entries exceeds limit %d", len(req.Entries), s.maxBatch)
		return
	}
	resp, err := s.RunIngestCtx(r.Context(), req.Entries)
	if err != nil {
		ae := IngestError(err)
		s.errCodes.Inc(ae.Code)
		WriteError(w, ae.Status, ae.Code, "%s", ae.Message)
		return
	}
	writeJSON(w, resp)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"status": "ok", "entries": s.Searcher().Len()})
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.StatsSnapshot())
}

// StatsSnapshot returns the same counters GET /stats serves — the
// in-process path a local shard replica reports through.
func (s *Service) StatsSnapshot() StatsResponse {
	sr := s.Searcher()
	out := StatsResponse{
		Entries:        sr.Len(),
		Dim:            sr.Dim(),
		Index:          sr.Kind(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Queries:        s.queries.Load(),
		BatchRequests:  s.batches.Load(),
		IngestRequests: s.ingests.Load(),
		Errors:         s.errs.Load(),
		LatencyUS:      s.latency.Bins(),
		LatencySumUS:   s.latency.SumUS(),
	}
	if s.ingester != nil {
		st := s.ingester.IngestStats()
		out.Ingest = &st
	}
	for _, part := range s.metrics.Collect(ResidentBytesMetric) {
		if out.LinkageResidentBytes == nil {
			out.LinkageResidentBytes = make(map[string]int64)
		}
		out.LinkageResidentBytes[part.Labels[0].Value] = int64(part.Value)
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	WriteJSON(w, http.StatusOK, v)
}

// WriteJSON writes v as a JSON response body with the given status code
// — the response writer shared by the query service and the shard
// router.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures past the header are unrecoverable; ignore.
	_ = json.NewEncoder(w).Encode(v)
}

// Serve runs the service on l until ctx is cancelled, then drains
// in-flight requests (graceful shutdown) for up to grace. It always
// closes the listener and returns nil after a clean shutdown.
func (s *Service) Serve(ctx context.Context, l net.Listener, grace time.Duration) error {
	return ServeHandler(ctx, l, s.Handler(), grace)
}

// ServeHandler runs any HTTP handler on l with the serving tier's
// production defaults (header/read/write timeouts) until ctx is
// cancelled, then drains in-flight requests for up to grace. Both the
// query daemon (Service.Serve) and the shard router use it.
func ServeHandler(ctx context.Context, l net.Listener, h http.Handler, grace time.Duration) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("fingerprint: shutdown: %w", err)
		}
		<-errc // always http.ErrServerClosed after Shutdown
		return nil
	}
}
