package fingerprint

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"caltrain/internal/obs"
	"caltrain/internal/obs/obstest"
)

// TestMetricsExpositionService: GET /v1/metrics serves lint-clean
// Prometheus text whose counters and latency buckets agree with /stats.
func TestMetricsExpositionService(t *testing.T) {
	_, _, client := serviceFixture(t)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 5; i++ {
		if _, err := client.Query(randomFP(rng, 4), 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	// One rejection, so the code-labeled error counter has a sample.
	if _, err := client.Query(make(Fingerprint, 9), 0, 3); err == nil {
		t.Fatal("dimension mismatch accepted")
	}

	exposition, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Lint(strings.NewReader(exposition)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, exposition)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}

	if got := obstest.Value(t, exposition, "caltrain_queries_total"); got != float64(st.Queries) {
		t.Fatalf("caltrain_queries_total = %v, /stats queries = %d", got, st.Queries)
	}
	if got := obstest.Value(t, exposition, "caltrain_entries"); got != float64(st.Entries) {
		t.Fatalf("caltrain_entries = %v, /stats entries = %d", got, st.Entries)
	}
	if got := obstest.Value(t, exposition, `caltrain_request_errors_total{code="bad_request"}`); got < 1 {
		t.Fatalf("caltrain_request_errors_total{code=bad_request} = %v, want >= 1", got)
	}
	if !strings.Contains(exposition, "caltrain_build_info{") {
		t.Fatalf("exposition lacks caltrain_build_info:\n%s", exposition)
	}
	// Runtime health sits next to the request metrics: resident bytes ÷
	// caltrain_entries is the live bytes-per-linkage figure.
	for _, name := range []string{"caltrain_process_resident_bytes", "caltrain_go_heap_inuse_bytes", "caltrain_go_goroutines"} {
		if got := obstest.Value(t, exposition, name); got <= 0 {
			t.Fatalf("%s = %v, want a positive reading", name, got)
		}
	}
	// A read-only daemon has no write path: the ingest families must be
	// absent, not zero.
	if strings.Contains(exposition, "caltrain_wal_bytes") {
		t.Fatalf("read-only daemon emits WAL gauges:\n%s", exposition)
	}

	// The Prometheus histogram is the /stats histogram re-emitted
	// cumulatively in seconds: each bucket count must equal the running
	// sum of the /stats bins up to the same bound, and +Inf the total.
	var cum uint64
	for _, bin := range st.LatencyUS {
		cum += bin.Count
		bound := `+Inf`
		if bin.LeUS >= 0 {
			bound = strconv.FormatFloat(float64(bin.LeUS)/1e6, 'g', -1, 64)
		}
		series := `caltrain_query_latency_seconds_bucket{le="` + bound + `"}`
		if got := obstest.Value(t, exposition, series); got != float64(cum) {
			t.Fatalf("%s = %v, /stats cumulative = %d", series, got, cum)
		}
	}
	if got := obstest.Value(t, exposition, "caltrain_query_latency_seconds_count"); got != float64(cum) {
		t.Fatalf("histogram _count = %v, want %d", got, cum)
	}
	if got := obstest.Value(t, exposition, "caltrain_query_latency_seconds_sum"); got != float64(st.LatencySumUS)/1e6 {
		t.Fatalf("histogram _sum = %v, /stats latency_sum_us = %d", got, st.LatencySumUS)
	}
}

// TestMetricsDisabled: DisableMetrics removes the endpoint.
func TestMetricsDisabled(t *testing.T) {
	db := populatedDB(t, 4, 10, 2, 5)
	svc := NewSearcherService(db, WithObservability(Observability{DisableMetrics: true}))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/metrics with metrics disabled: status %d", rec.Code)
	}
}

// TestPromHistogram: the per-bucket /stats bins accumulate into
// monotone cumulative Prometheus buckets, bounds converted µs → s.
func TestPromHistogram(t *testing.T) {
	bins := []HistogramBin{
		{LeUS: 100, Count: 3},
		{LeUS: 1000, Count: 2},
		{LeUS: -1, Count: 1},
	}
	snap := PromHistogram(bins, 4200)
	if len(snap.Buckets) != 2 {
		t.Fatalf("got %d finite buckets, want 2", len(snap.Buckets))
	}
	if snap.Buckets[0].UpperBound != 0.0001 || snap.Buckets[0].Count != 3 {
		t.Fatalf("bucket 0 = %+v, want le=0.0001 count=3", snap.Buckets[0])
	}
	if snap.Buckets[1].UpperBound != 0.001 || snap.Buckets[1].Count != 5 {
		t.Fatalf("bucket 1 = %+v, want le=0.001 cumulative count=5", snap.Buckets[1])
	}
	if snap.Count != 6 {
		t.Fatalf("Count = %d, want 6 (overflow folded into +Inf)", snap.Count)
	}
	if snap.Sum != 0.0042 {
		t.Fatalf("Sum = %v, want 0.0042", snap.Sum)
	}
}

// TestMergeBinsMismatchedBounds: sets with differing bucket bounds merge
// into the union of bounds, each count kept at its own (possibly
// coarser) upper bound, overflow last — and the result still reads as a
// valid cumulative histogram when re-emitted through PromHistogram.
func TestMergeBinsMismatchedBounds(t *testing.T) {
	fine := []HistogramBin{
		{LeUS: 100, Count: 4},
		{LeUS: 500, Count: 2},
		{LeUS: -1, Count: 1},
	}
	coarse := []HistogramBin{
		{LeUS: 250, Count: 5},
		{LeUS: -1, Count: 2},
	}
	merged := MergeBins(fine, coarse)
	want := []HistogramBin{
		{LeUS: 100, Count: 4},
		{LeUS: 250, Count: 5},
		{LeUS: 500, Count: 2},
		{LeUS: -1, Count: 3},
	}
	if len(merged) != len(want) {
		t.Fatalf("merged = %+v, want %+v", merged, want)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, merged[i], want[i])
		}
	}
	snap := PromHistogram(merged, 0)
	var prev uint64
	for _, b := range snap.Buckets {
		if b.Count < prev {
			t.Fatalf("merged buckets not monotone: %+v", snap.Buckets)
		}
		prev = b.Count
	}
	if snap.Count != 14 {
		t.Fatalf("total = %d, want 14", snap.Count)
	}
}

// TestRequestIDInErrorEnvelope: a supplied X-Request-Id lands in the
// error envelope and on the response header; an absent one is generated.
func TestRequestIDInErrorEnvelope(t *testing.T) {
	db := populatedDB(t, 4, 10, 2, 5)
	svc := NewSearcherService(db)
	h := svc.Handler()

	body, _ := json.Marshal(QueryRequest{Fingerprint: make([]float32, 9), Label: 0, K: 3})
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	req.Header.Set(obs.RequestIDHeader, "test-123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	if got := rec.Header().Get(obs.RequestIDHeader); got != "test-123" {
		t.Fatalf("response %s = %q, want test-123", obs.RequestIDHeader, got)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.RequestID != "test-123" {
		t.Fatalf("envelope request_id = %q, want test-123", env.RequestID)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	if got := rec.Header().Get(obs.RequestIDHeader); !obs.ValidRequestID(got) {
		t.Fatalf("generated request ID %q is not valid", got)
	}
}
