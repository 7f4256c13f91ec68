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
	repl  ReplRoutes

	metrics *obs.Registry
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
func NewSearcherService(sr Searcher, opts ...FrontOption) *Service {
	s := &Service{searcher: sr}
	s.front = NewFront(s, DefaultLatencyBucketsUS, opts...)
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

// Front is the service's request side: a shard.LocalReplica sends its
// in-process batches and writes through it, admitted and counted as
// over HTTP.
func (s *Service) Front() *Front { return s.front }

// Handler returns the HTTP handler serving the versioned wire protocol
// (POST /v1/query, POST /v1/query/batch, POST /v1/ingest, GET
// /v1/healthz, GET /v1/stats, GET /v1/meta): the Front serves the
// verbs, the service answers them.
func (s *Service) Handler() http.Handler {
	return s.front.Handler(RouteSet{
		Healthz:      s.handleHealthz,
		Stats:        s.handleStats,
		Metrics:      s.metrics.ServeHTTP,
		Meta:         s.Meta,
		ReplSnapshot: s.repl.Snapshot,
		ReplWAL:      s.repl.WAL,
		ReplSync:     s.repl.Sync,
		ReplStatus:   s.repl.Status,
	})
}

// Meta reports the daemon's /v1/meta identity: the current backend kind
// and whether a write path is configured.
func (s *Service) Meta() MetaResponse {
	return s.front.Meta(s.Searcher().Kind(), MetaCapabilities{Ingest: s.Writable(), Replication: s.repl.Snapshot != nil})
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

// ServeHandler runs any HTTP handler on l with the serving tier's
// production defaults (header/read/write timeouts) until ctx is
// cancelled, then drains in-flight requests (graceful shutdown) for up
// to grace. It always closes the listener and returns nil after a
// clean shutdown. serve.Server.Serve runs every built deployment, a
// query service or a router, through it.
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
