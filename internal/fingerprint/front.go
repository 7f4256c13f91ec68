package fingerprint

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"caltrain/internal/obs"
)

// Front is the request side of the wire protocol that both HTTP tiers
// share: the shard daemon (Service) and the scatter-gather router
// (shard.Router) each hold one. It owns the serving counters, the error
// total with its per-code counter, the latency histogram, the body and
// batch limits and the observability options, and it is the one place
// that decodes a request body, admits a batch, counts an error,
// declares the metric families both tiers export and fills the
// /v1/stats header they share. So /v1/stats and /v1/metrics read the
// same counters — errors == Σ caltrain_request_errors_total{code} — and
// the two tiers cannot enforce a rule differently.
type Front struct {
	// MaxBody bounds a request body in bytes; MaxBatch the queries or
	// entries of one batch; MaxK the neighbours one query asks for,
	// which only a daemon enforces. The With* options set them.
	MaxBody  int64
	MaxBatch int
	MaxK     int
	// Latency is the request-latency histogram: /v1/stats latency_us and
	// caltrain_query_latency_seconds.
	Latency *Histogram
	// Observability is the tier's request logging, tracer and metrics
	// toggle.
	Observability Observability
	// Queries counts queries (batched ones individually), Batches batch
	// requests, Ingests ingest requests.
	Queries, Batches, Ingests atomic.Uint64

	start    time.Time
	errs     atomic.Uint64
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
	return func(f *Front) { f.Latency = NewHistogram(boundsUS) }
}

// WithObservability configures request logging, the slow-query
// threshold, the tracer and the metrics toggle. The zero value (the
// default) keeps request-ID propagation and /v1/metrics on with no
// logging.
func WithObservability(o Observability) FrontOption {
	return func(f *Front) { f.Observability = o }
}

// NewFront returns a front with the default limits and a latency
// histogram over bucketsUS, then opts applied, its uptime clock
// started now.
func NewFront(bucketsUS []int64, opts ...FrontOption) *Front {
	f := &Front{
		MaxBody:  DefaultMaxBodyBytes,
		MaxBatch: DefaultMaxBatch,
		MaxK:     DefaultMaxK,
		Latency:  NewHistogram(bucketsUS),
		start:    time.Now(),
		errCodes: obs.NewCounterVec("caltrain_request_errors_total",
			"Error envelopes written, labeled by stable wire-protocol code.", "code"),
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// CountErrors records n failures under one wire-protocol code: the
// /v1/stats errors total and caltrain_request_errors_total{code} move
// together, here and nowhere else.
func (f *Front) CountErrors(code string, n int) {
	f.errs.Add(uint64(n))
	f.errCodes.Add(code, uint64(n))
}

// Fail counts one error and writes its envelope.
func (f *Front) Fail(w http.ResponseWriter, status int, code, format string, args ...any) {
	f.CountErrors(code, 1)
	WriteError(w, status, code, format, args...)
}

// Decode reads r's JSON body, bounded by MaxBody, into v. On failure it
// answers 413 body_too_large or 400 bad_request, counted, and returns
// false.
func (f *Front) Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, f.MaxBody)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	// Declared past the success return: errors.As moves it to the heap.
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		f.Fail(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge, "request body exceeds %d bytes", f.MaxBody)
	} else {
		f.Fail(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request: %v", err)
	}
	return false
}

// AdmitBatch returns nil for a query batch of n within MaxBatch, or the
// rejection — already counted — an empty or oversized one gets.
func (f *Front) AdmitBatch(n int) *APIError { return f.admit(n, "batch", "queries") }

// AdmitIngest is AdmitBatch for an ingest batch of n entries.
func (f *Front) AdmitIngest(n int) *APIError { return f.admit(n, "ingest batch", "entries") }

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

// Stats fills the /v1/stats fields both tiers report: uptime, the
// request counters, the error total and the latency histogram. The
// caller adds what only it knows (entries, dimension, index kind).
func (f *Front) Stats() StatsResponse {
	return StatsResponse{
		UptimeSeconds:  time.Since(f.start).Seconds(),
		Queries:        f.Queries.Load(),
		BatchRequests:  f.Batches.Load(),
		IngestRequests: f.Ingests.Load(),
		Errors:         f.errs.Load(),
		LatencyUS:      f.Latency.Bins(),
		LatencySumUS:   f.Latency.SumUS(),
	}
}

// Registry assembles a tier's Prometheus registry: the families both
// tiers export — build info, the request counters, errors by code,
// uptime and the latency histogram — then the tier's own, then the
// tracer's and the runtime's. Every family reads the counters above at
// scrape time.
func (f *Front) Registry(tier ...*obs.Family) *obs.Registry {
	reg := obs.NewRegistry()
	reg.MustRegister(
		obs.BuildInfoFamily(),
		obs.CounterFunc("caltrain_queries_total",
			"Queries served, batched queries counted individually.",
			func() float64 { return float64(f.Queries.Load()) }),
		obs.CounterFunc("caltrain_batch_requests_total",
			"Batch query requests served.",
			func() float64 { return float64(f.Batches.Load()) }),
		obs.CounterFunc("caltrain_ingest_requests_total",
			"Ingest requests served.",
			func() float64 { return float64(f.Ingests.Load()) }),
		f.errCodes.Family(),
		obs.GaugeFunc("caltrain_uptime_seconds",
			"Seconds since the process started serving.",
			func() float64 { return time.Since(f.start).Seconds() }),
		obs.HistogramFunc("caltrain_query_latency_seconds",
			"Request latency, the /v1/stats histogram re-emitted cumulatively in seconds.",
			func() obs.HistogramSnapshot { return PromHistogram(f.Latency.Bins(), f.Latency.SumUS()) }),
	)
	reg.MustRegister(tier...)
	reg.MustRegister(f.Observability.Tracer.MetricFamilies()...)
	reg.MustRegister(obs.RuntimeFamilies()...)
	return reg
}
