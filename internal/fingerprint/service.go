package fingerprint

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

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
// plus a latency histogram are exported on /stats. The request side —
// body decoding, batch limits, counters, the shared metric families —
// is its Front, the same one the shard router holds.
type Service struct {
	mu       sync.RWMutex
	searcher Searcher
	ingester Ingester

	front *Front
	maxK  int
	repl  ReplRoutes

	metrics *obs.Registry
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
func WithMaxBodyBytes(n int64) ServiceOption { return func(s *Service) { s.front.MaxBody = n } }

// WithMaxK bounds the per-query neighbour count.
func WithMaxK(k int) ServiceOption { return func(s *Service) { s.maxK = k } }

// WithMaxBatch bounds the number of queries in one batch request, and
// of entries in one ingest request.
func WithMaxBatch(n int) ServiceOption { return func(s *Service) { s.front.MaxBatch = n } }

// WithLatencyBuckets replaces the latency histogram's bucket upper bounds
// (microseconds, ascending). The defaults (DefaultLatencyBucketsUS) are
// tuned for sub-millisecond local serving; a service fronting network
// hops — a scatter-gather router, a WAN deployment — should pass bounds
// matching its latency regime so observations don't all land in the
// overflow bucket.
func WithLatencyBuckets(boundsUS []int64) ServiceOption {
	return func(s *Service) { s.front.Latency = NewHistogram(boundsUS) }
}

// WithObservability configures request logging, the slow-query
// threshold, and the metrics toggle. The zero value (the default) keeps
// request-ID propagation and /v1/metrics on with no logging.
func WithObservability(o Observability) ServiceOption {
	return func(s *Service) { s.front.Observability = o }
}

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
	s.metrics.MustRegister(fams...)
}

// NewSearcherService serves queries through any Searcher backend: the
// linkage database itself (exact linear scan), or an index over it.
// SetSearcher swaps the backend while serving.
func NewSearcherService(sr Searcher, opts ...ServiceOption) *Service {
	s := &Service{searcher: sr, front: NewFront(DefaultLatencyBucketsUS), maxK: DefaultMaxK}
	for _, o := range opts {
		o(s)
	}
	s.metrics = s.buildMetrics()
	return s
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
		Observability: s.front.Observability,
		ReplSnapshot:  s.repl.Snapshot,
		ReplWAL:       s.repl.WAL,
		ReplSync:      s.repl.Sync,
		ReplStatus:    s.repl.Status,
	}
	if !s.front.Observability.DisableMetrics {
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
			Trace:       s.front.Observability.Tracer != nil,
			Replication: s.repl.Snapshot != nil,
		},
		Build: obs.Build(),
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"status": "ok", "entries": s.Searcher().Len()})
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
