package fingerprint

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func serviceFixture(t *testing.T, opts ...FrontOption) (*Service, *httptest.Server, *Client) {
	t.Helper()
	db := populatedDB(t, 4, 30, 2, 23)
	svc := NewSearcherService(db, opts...)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv, NewClient(srv.URL, srv.Client())
}

func TestServiceMalformedJSON(t *testing.T) {
	_, srv, _ := serviceFixture(t)
	for _, path := range []string{"/v1/query", "/v1/query/batch"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s malformed JSON: status %s", path, resp.Status)
		}
	}
}

func TestServiceDimensionMismatch(t *testing.T) {
	_, _, client := serviceFixture(t)
	if _, err := client.Query(make(Fingerprint, 7), 0, 3); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestServiceOversizedK(t *testing.T) {
	_, _, client := serviceFixture(t, WithMaxK(10))
	if _, err := client.Query(make(Fingerprint, 4), 0, 11); err == nil {
		t.Fatal("k over limit accepted")
	}
	if _, err := client.Query(make(Fingerprint, 4), 0, 10); err != nil {
		t.Fatalf("k at limit rejected: %v", err)
	}
}

func TestServiceBodyLimit(t *testing.T) {
	_, srv, _ := serviceFixture(t, WithMaxBodyBytes(64))
	body, _ := json.Marshal(QueryRequest{Fingerprint: make([]float32, 40), Label: 0, K: 3})
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %s", resp.Status)
	}
}

func TestServiceBatchPartialFailure(t *testing.T) {
	_, _, client := serviceFixture(t)
	rng := rand.New(rand.NewPCG(8, 8))
	good := QueryRequest{Fingerprint: randomFP(rng, 4), Label: 1, K: 5}
	badDim := QueryRequest{Fingerprint: make([]float32, 9), Label: 1, K: 5}
	badK := QueryRequest{Fingerprint: randomFP(rng, 4), Label: 1, K: -1}
	resp, err := client.QueryBatch([]QueryRequest{good, badDim, badK, good})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	for _, i := range []int{0, 3} {
		r := resp.Results[i]
		if r.Error != "" || r.QueryResponse == nil || len(r.Matches) != 5 {
			t.Fatalf("result %d should succeed: %+v", i, r)
		}
	}
	for _, i := range []int{1, 2} {
		r := resp.Results[i]
		if r.Error == "" || r.QueryResponse != nil {
			t.Fatalf("result %d should fail: %+v", i, r)
		}
	}
	// Per-query batch failures count toward the errors stat.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 2 {
		t.Fatalf("errors = %d, want 2", st.Errors)
	}
}

func TestServiceBatchLimits(t *testing.T) {
	_, _, client := serviceFixture(t, WithMaxBatch(2))
	q := QueryRequest{Fingerprint: make([]float32, 4), Label: 0, K: 1}
	if _, err := client.QueryBatch([]QueryRequest{q, q, q}); err == nil {
		t.Fatal("batch over limit accepted")
	}
	if _, err := client.QueryBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestServiceHealthzAndStats(t *testing.T) {
	_, _, client := serviceFixture(t)
	if err := client.Healthz(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	if _, err := client.Query(randomFP(rng, 4), 0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := client.QueryBatch([]QueryRequest{{Fingerprint: randomFP(rng, 4), Label: 0, K: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(make(Fingerprint, 1), 0, 3); err == nil {
		t.Fatal("expected error")
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 30 || st.Dim != 4 || st.Index != "linear" {
		t.Fatalf("stats identity: %+v", st)
	}
	if st.Queries != 3 || st.BatchRequests != 1 || st.Errors != 1 {
		t.Fatalf("stats counters: queries=%d batches=%d errors=%d", st.Queries, st.BatchRequests, st.Errors)
	}
	var observed uint64
	for _, bin := range st.LatencyUS {
		observed += bin.Count
	}
	// Two successful requests (one single, one batch) were timed.
	if observed != 2 {
		t.Fatalf("latency histogram observed %d", observed)
	}
}

func TestServiceHotSwap(t *testing.T) {
	svc, _, client := serviceFixture(t)
	bigger := populatedDB(t, 4, 60, 2, 29)
	svc.SetSearcher(bigger)
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 60 {
		t.Fatalf("hot swap not visible: %d entries", st.Entries)
	}
}

// swappingSearcher is a backend without SearchBatch that, on its first
// Search, hot-swaps the service over to another backend — the rollover
// a batch may straddle, made deterministic.
type swappingSearcher struct {
	Searcher
	svc  *Service
	next Searcher
	once sync.Once
}

func (s *swappingSearcher) Search(f Fingerprint, label, k int) ([]Match, error) {
	s.once.Do(func() { s.svc.SetSearcher(s.next) })
	return s.Searcher.Search(f, label, k)
}

// TestServiceBatchOneSnapshot: RunBatch reads the backend once, so the
// backend that answers a batch's first query answers all of it, per-query
// loop included, even when a SetSearcher lands in between. The swapped-in
// database has an entry at distance 0 of every query; no result may show
// it.
func TestServiceBatchOneSnapshot(t *testing.T) {
	db := populatedDB(t, 4, 30, 2, 23)
	rng := rand.New(rand.NewPCG(8, 8))
	reqs := make([]QueryRequest, 6)
	next := populatedDB(t, 4, 30, 2, 23)
	for i := range reqs {
		f := randomFP(rng, 4)
		reqs[i] = QueryRequest{Fingerprint: f, Label: i % 2, K: 1}
		if err := next.Add(Linkage{F: f, Y: i % 2, S: "swapped-in"}); err != nil {
			t.Fatal(err)
		}
	}
	svc := NewSearcherService(db)
	svc.SetSearcher(&swappingSearcher{Searcher: db, svc: svc, next: next})
	resp := svc.RunBatch(reqs)
	if svc.Searcher() != Searcher(next) {
		t.Fatal("the stub did not swap the backend")
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("query %d: %s", i, r.Error)
		}
		if m := r.Matches[0]; m.Source == "swapped-in" || m.Distance == 0 {
			t.Fatalf("query %d was answered by the swapped-in backend: %+v", i, m)
		}
	}
}

// TestServiceConcurrent drives concurrent clients against the handler
// while the backend hot-swaps and ingest appends — the -race guarantee
// the daemon relies on.
func TestServiceConcurrent(t *testing.T) {
	db := populatedDB(t, 4, 50, 2, 31)
	svc := NewSearcherService(db)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Ingest keeps appending.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(1, 1))
		for {
			select {
			case <-stop:
				return
			default:
				_ = db.Add(Linkage{F: randomFP(rng, 4), Y: 0, S: "late"})
			}
		}
	}()
	// Hot-swapper replaces the backend.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				svc.SetSearcher(db)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := NewClient(srv.URL, srv.Client())
			rng := rand.New(rand.NewPCG(uint64(g), 2))
			for i := 0; i < 30; i++ {
				if _, err := client.Query(randomFP(rng, 4), i%2, 5); err != nil {
					t.Error(err)
					return
				}
				if _, err := client.QueryBatch([]QueryRequest{
					{Fingerprint: randomFP(rng, 4), Label: 0, K: 3},
					{Fingerprint: randomFP(rng, 4), Label: 1, K: 3},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestServiceGracefulServe exercises ServeHandler over a service's
// handler: queries succeed while running, cancellation drains and
// returns nil.
func TestServiceGracefulServe(t *testing.T) {
	db := populatedDB(t, 4, 20, 2, 37)
	svc := NewSearcherService(db)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeHandler(ctx, l, svc.Handler(), 2*time.Second) }()

	client := NewClient("http://"+l.Addr().String(), nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := client.Healthz(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := client.Query(randomFP(rand.New(rand.NewPCG(3, 3)), 4), 0, 3); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if err := client.Healthz(); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

// recordingIngester is a stub write path for service-level tests.
type recordingIngester struct {
	mu      sync.Mutex
	applied []Linkage
	fail    error
}

func (r *recordingIngester) IngestBatchCtx(_ context.Context, ls []Linkage) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return 0, r.fail
	}
	r.applied = append(r.applied, ls...)
	return len(ls), nil
}

func (r *recordingIngester) IngestStats() IngestStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return IngestStats{Accepted: uint64(len(r.applied)), WALBytes: 123}
}

// TestServiceIngestEndpoint: POST /ingest decodes, applies through the
// Ingester, and surfaces write counters on /stats; a read-only service
// answers 501.
func TestServiceIngestEndpoint(t *testing.T) {
	svc, srv, client := serviceFixture(t)
	// Read-only until an ingester is wired in.
	if _, err := client.Ingest([]IngestEntry{{Fingerprint: make([]float32, 4)}}); err == nil {
		t.Fatal("read-only service accepted an ingest")
	}
	ing := &recordingIngester{}
	svc.SetIngester(ing)

	entries := []IngestEntry{
		{Fingerprint: []float32{1, 0, 0, 0}, Label: 1, Source: "p9", Hash: strings.Repeat("0f", 32)},
		{Fingerprint: []float32{0, 1, 0, 0}, Label: 0, Source: "p9"},
	}
	resp, err := client.Ingest(entries)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 {
		t.Fatalf("ingest response: %+v", resp)
	}
	ing.mu.Lock()
	if len(ing.applied) != 2 || ing.applied[0].S != "p9" || ing.applied[0].H[0] != 0x0f {
		t.Fatalf("applied: %+v", ing.applied)
	}
	ing.mu.Unlock()

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The read-only 501 never reached the write path, so one request.
	if st.Ingest == nil || st.Ingest.Accepted != 2 || st.Ingest.WALBytes != 123 || st.IngestRequests != 1 {
		t.Fatalf("stats ingest block: %+v (requests %d)", st.Ingest, st.IngestRequests)
	}

	// Malformed hash: 400 via typed classification, nothing applied.
	badHash := []IngestEntry{{Fingerprint: make([]float32, 4), Hash: "xyz"}}
	res, err := srv.Client().Post(srv.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"entries":[{"fingerprint":[0,0,0,0],"hash":"xyz"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad hash status %s", res.Status)
	}
	_ = badHash

	// Ingester-side validation error → 400; store fault → 500.
	ing.fail = ErrDimMismatch
	res, _ = srv.Client().Post(srv.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"entries":[{"fingerprint":[0,0,0,0]}]}`))
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("validation failure status %s", res.Status)
	}
	ing.fail = errors.New("disk full")
	res, _ = srv.Client().Post(srv.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"entries":[{"fingerprint":[0,0,0,0]}]}`))
	res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("store fault status %s", res.Status)
	}
}
