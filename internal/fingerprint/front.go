package fingerprint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"caltrain/internal/obs"
)

// Tier answers the verbs a Front serves: the shard daemon's Service
// from its index, shard.Router by scatter-gather. A tier only answers,
// and counts the failures inside an answer (a failed query, a batch's
// failed results, a routed write's failed entries); the Front decodes,
// admits, counts, times and encodes.
type Tier interface {
	// Query answers one query; a failure is a result with a code.
	Query(ctx context.Context, q QueryRequest) BatchResult
	// Batch answers an admitted batch, each query failing alone.
	Batch(ctx context.Context, qs []QueryRequest) *BatchResponse
	// Ingest applies an admitted write; an error refuses all of it.
	Ingest(ctx context.Context, es []IngestEntry) (*IngestResponse, error)
	// Writable reports whether the tier has a write path.
	Writable() bool
}

// Front is the request side of the wire protocol both HTTP tiers share:
// the shard daemon (Service) and the scatter-gather router
// (shard.Router) each hold one, over themselves as its Tier. It serves
// the three verbs over HTTP and in process (shard.LocalReplica), so it
// is the one place that decodes a request body, admits a batch, counts
// and times a request, counts an error, declares the metric families
// both tiers export and fills their shared /v1/stats header: /v1/stats
// and /v1/metrics read the same counters, and no tier counts a rule
// its own way.
type Front struct {
	// MaxBody bounds a request body in bytes; MaxBatch the queries or
	// entries of one batch; MaxK the neighbours one query asks for,
	// which only a daemon enforces. The With* options set them.
	MaxBody  int64
	MaxBatch int
	MaxK     int
	// Observability is the tier's request logging, tracer and metrics
	// toggle.
	Observability Observability

	tier Tier
	// latency backs /v1/stats latency_us and
	// caltrain_query_latency_seconds; queries counts batched queries
	// individually.
	latency                   *Histogram
	queries, batches, ingests atomic.Uint64

	start    time.Time
	errCodes *obs.CounterVec
}

// Request limits. Overridable per tier with the With* options.
const (
	DefaultMaxBodyBytes = 8 << 20 // generous: one batch of ~1000 dim-2048 fingerprints
	DefaultMaxK         = 1024
	DefaultMaxBatch     = 256
)

// FrontOption configures a Front: the request options a daemon's
// Service and a shard.Router take alike.
type FrontOption func(*Front)

// WithMaxBodyBytes bounds the accepted request body size.
func WithMaxBodyBytes(n int64) FrontOption { return func(f *Front) { f.MaxBody = n } }

// WithMaxK bounds the per-query neighbour count.
func WithMaxK(k int) FrontOption { return func(f *Front) { f.MaxK = k } }

// WithMaxBatch bounds the number of queries in one batch request, and
// of entries in one ingest request.
func WithMaxBatch(n int) FrontOption { return func(f *Front) { f.MaxBatch = n } }

// WithLatencyBuckets replaces the latency histogram's bucket upper bounds
// (microseconds, ascending). The tier's defaults are
// DefaultLatencyBucketsUS for sub-millisecond local serving and
// shard.RouterLatencyBucketsUS for a router's network hops.
func WithLatencyBuckets(boundsUS []int64) FrontOption {
	return func(f *Front) { f.latency = NewHistogram(boundsUS) }
}

// WithObservability configures request logging, the slow-query
// threshold, the tracer and the metrics toggle. The zero value (the
// default) keeps request-ID propagation and /v1/metrics on with no
// logging.
func WithObservability(o Observability) FrontOption {
	return func(f *Front) { f.Observability = o }
}

// NewFront returns a front over t with the default limits and a
// latency histogram over bucketsUS, then opts applied, its uptime clock
// started now.
func NewFront(t Tier, bucketsUS []int64, opts ...FrontOption) *Front {
	f := &Front{
		MaxBody:  DefaultMaxBodyBytes,
		MaxBatch: DefaultMaxBatch,
		MaxK:     DefaultMaxK,
		tier:     t,
		latency:  NewHistogram(bucketsUS),
		start:    time.Now(),
		errCodes: obs.NewCounterVec("caltrain_request_errors_total",
			"Error envelopes written, labeled by stable wire-protocol code.", "code"),
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// CountErrors records n failures under one wire-protocol code in
// caltrain_request_errors_total{code}, whose sum is the /v1/stats
// errors total: here and nowhere else.
func (f *Front) CountErrors(code string, n int) {
	f.errCodes.Add(code, uint64(n))
}

// Handler serves the wire protocol under the observability middleware
// (request IDs, request and slow-query logging): the three verbs
// through this front, and beside them rs, the tier's own routes, with
// /v1/metrics unmounted when Observability turns metrics off.
func (f *Front) Handler(rs RouteSet) http.Handler {
	if f.Observability.DisableMetrics {
		rs.Metrics = nil
	}
	return obs.Middleware(f.Observability, rs.mux(f.serveQuery, f.serveBatch, f.serveIngest))
}

// serveQuery answers POST /v1/query. A single query is counted, and
// timed, from the moment it arrives.
func (f *Front) serveQuery(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	f.queries.Add(1)
	var q QueryRequest
	if !f.decode(w, r, &q) {
		return
	}
	res := f.tier.Query(r.Context(), q)
	if ae := res.Failure(); ae != nil {
		WriteAPIError(w, ae) // the tier counted it
		return
	}
	f.latency.Observe(time.Since(started))
	writeJSON(w, res.QueryResponse)
}

// serveBatch answers POST /v1/query/batch.
func (f *Front) serveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if f.decode(w, r, &req) {
		resp, err := f.Batch(r.Context(), req.Queries)
		reply(w, resp, err)
	}
}

// serveIngest answers POST /v1/ingest. A read-only tier refuses before
// reading the body.
func (f *Front) serveIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if f.tier.Writable() && !f.decode(w, r, &req) {
		return
	}
	resp, err := f.Ingest(r.Context(), req.Entries)
	reply(w, resp, err)
}

// reply writes a verb's answer, or the *APIError Batch and Ingest
// refuse with.
func reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		WriteAPIError(w, err.(*APIError))
		return
	}
	writeJSON(w, v)
}

// Batch admits a batch of queries, counts it, and times the tier's
// answer from admission: POST /v1/query/batch past decoding, and a
// shard.LocalReplica's sub-batch in process. A refused batch gets its
// *APIError, counted as one error.
func (f *Front) Batch(ctx context.Context, qs []QueryRequest) (*BatchResponse, error) {
	if ae := f.admit(len(qs), "batch", "queries"); ae != nil {
		return nil, ae
	}
	started := time.Now()
	f.batches.Add(1)
	f.queries.Add(uint64(len(qs)))
	out := f.tier.Batch(ctx, qs)
	f.latency.Observe(time.Since(started))
	return out, nil
}

// Ingest admits a write, counts it and has the tier apply it: POST
// /v1/ingest past decoding, and a shard.LocalReplica's write in
// process. A refusal is the *APIError the tier's error types to,
// counted as one error — but a read-only tier's 501 is not counted: it
// is a valid deployment, and the client asked the wrong tier.
func (f *Front) Ingest(ctx context.Context, es []IngestEntry) (*IngestResponse, error) {
	if !f.tier.Writable() {
		return nil, ingestError(ErrIngestDisabled)
	}
	if ae := f.admit(len(es), "ingest batch", "entries"); ae != nil {
		return nil, ae
	}
	f.ingests.Add(1)
	resp, err := f.tier.Ingest(ctx, es)
	if err != nil {
		ae := ingestError(err)
		f.CountErrors(ae.Code, 1)
		return nil, ae
	}
	return resp, nil
}

// decode reads r's JSON body, bounded by MaxBody, into v. On failure it
// answers 413 body_too_large or 400 bad_request, counted, and returns
// false.
func (f *Front) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, f.MaxBody)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	// Declared past the success return: errors.As moves it to the heap.
	var tooLarge *http.MaxBytesError
	ae := &APIError{Status: http.StatusBadRequest, Code: ErrCodeBadRequest, Message: "bad request: " + err.Error()}
	if errors.As(err, &tooLarge) {
		ae = &APIError{Status: http.StatusRequestEntityTooLarge, Code: ErrCodeBodyTooLarge,
			Message: fmt.Sprintf("request body exceeds %d bytes", f.MaxBody)}
	}
	f.CountErrors(ae.Code, 1)
	WriteAPIError(w, ae)
	return false
}

// admit returns nil for a batch of n within MaxBatch, or the rejection
// — already counted — an empty or oversized one gets.
func (f *Front) admit(n int, what, unit string) *APIError {
	var ae *APIError
	switch {
	case n == 0:
		ae = &APIError{Status: http.StatusBadRequest, Code: ErrCodeBadRequest, Message: what + " has no " + unit}
	case n > f.MaxBatch:
		ae = &APIError{Status: http.StatusBadRequest, Code: ErrCodeLimitExceeded,
			Message: fmt.Sprintf("%s of %d %s exceeds limit %d", what, n, unit, f.MaxBatch)}
	default:
		return nil
	}
	f.CountErrors(ae.Code, 1)
	return ae
}

// Meta is the /v1/meta identity of a tier serving backend with caps:
// this build and protocol, and whether the front keeps traces.
func (f *Front) Meta(backend string, caps MetaCapabilities) MetaResponse {
	caps.Trace = f.Observability.Tracer != nil
	return MetaResponse{Server: ServerVersion, Protocol: ProtocolVersion, Backend: backend, Capabilities: caps, Build: obs.Build()}
}

// StatsResponse is the JSON body of GET /v1/stats. A field tagged
// metric:"…" is also a family of the tier's scrape (obs.Fields), so the
// two views of its number are one declaration.
type StatsResponse struct {
	Entries        int            `json:"entries"`
	Dim            int            `json:"dim"`
	Index          string         `json:"index"`
	UptimeSeconds  float64        `json:"uptime_seconds" metric:"caltrain_uptime_seconds" help:"Seconds since the process started serving."`
	Queries        uint64         `json:"queries" metric:"caltrain_queries_total" help:"Queries served, batched queries counted individually."`
	BatchRequests  uint64         `json:"batch_requests" metric:"caltrain_batch_requests_total" help:"Batch query requests served."`
	IngestRequests uint64         `json:"ingest_requests,omitempty" metric:"caltrain_ingest_requests_total" help:"Ingest requests served."`
	Errors         uint64         `json:"errors"` // the sum of caltrain_request_errors_total
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

// Stats fills the /v1/stats fields both tiers report: uptime, the
// request counters, the error total and the latency histogram. The
// caller adds what only it knows (entries, dimension, index kind).
func (f *Front) Stats() StatsResponse {
	return StatsResponse{
		UptimeSeconds:  time.Since(f.start).Seconds(),
		Queries:        f.queries.Load(),
		BatchRequests:  f.batches.Load(),
		IngestRequests: f.ingests.Load(),
		Errors:         f.errCodes.Total(),
		LatencyUS:      f.latency.Bins(),
		LatencySumUS:   f.latency.SumUS(),
	}
}

// Registry assembles a tier's Prometheus registry: the families both
// tiers export — build info, StatsResponse's tagged fields, errors by
// code and the latency histogram — then the tier's own, then the
// tracer's and the runtime's. Every family reads the counters above at
// scrape time.
func (f *Front) Registry(tier ...*obs.Family) *obs.Registry {
	reg := obs.NewRegistry()
	reg.MustRegister(obs.BuildInfoFamily())
	reg.MustRegister(obs.Fields(func() *StatsResponse {
		st := f.Stats()
		return &st
	})...)
	reg.MustRegister(
		f.errCodes.Family(),
		obs.HistogramFunc("caltrain_query_latency_seconds",
			"Request latency, the /v1/stats histogram re-emitted cumulatively in seconds.",
			func() obs.HistogramSnapshot { return PromHistogram(f.latency.Bins(), f.latency.SumUS()) }),
	)
	reg.MustRegister(tier...)
	reg.MustRegister(f.Observability.Tracer.MetricFamilies()...)
	reg.MustRegister(obs.RuntimeFamilies()...)
	return reg
}
