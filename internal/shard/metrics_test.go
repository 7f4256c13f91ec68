package shard

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/obs"
)

// routerExpositionValue extracts the value of the first sample line
// matching the given series (name plus any label set), or fails.
func routerExpositionValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		rest := strings.TrimPrefix(line, series)
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("exposition has no series %q:\n%s", series, exposition)
	return 0
}

// TestRouterMetricsExposition: the router's /v1/metrics is lint-clean
// and its topology gauges and merged shard histogram agree with the
// aggregated /stats.
func TestRouterMetricsExposition(t *testing.T) {
	db := testDB(t, 8, 200, 6)
	rt, _ := shardedFixture(t, db, 3)
	h := rt.Handler()

	rng := rand.New(rand.NewPCG(21, 21))
	reqs := make([]fingerprint.QueryRequest, 12)
	for i := range reqs {
		reqs[i] = fingerprint.QueryRequest{
			Fingerprint: index.SynthFingerprints(rng, 1, 8, 3, 0.3)[0],
			Label:       i % 6,
			K:           3,
		}
	}
	postBatch(t, h, reqs)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d: %s", rec.Code, rec.Body.String())
	}
	exposition := rec.Body.String()
	if err := obs.Lint(strings.NewReader(exposition)); err != nil {
		t.Fatalf("router exposition fails lint: %v\n%s", err, exposition)
	}

	statsRec := httptest.NewRecorder()
	h.ServeHTTP(statsRec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st StatsResponse
	if err := json.NewDecoder(statsRec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}

	if got := routerExpositionValue(t, exposition, "caltrain_router_shards"); got != 3 {
		t.Fatalf("caltrain_router_shards = %v, want 3", got)
	}
	if got := routerExpositionValue(t, exposition, "caltrain_router_unreachable_shards"); got != 0 {
		t.Fatalf("caltrain_router_unreachable_shards = %v, want 0", got)
	}
	for _, name := range []string{"caltrain_process_resident_bytes", "caltrain_go_heap_inuse_bytes", "caltrain_go_goroutines"} {
		if got := routerExpositionValue(t, exposition, name); got <= 0 {
			t.Fatalf("%s = %v, want a positive reading", name, got)
		}
	}
	if got := routerExpositionValue(t, exposition, "caltrain_queries_total"); got != float64(st.Queries) {
		t.Fatalf("caltrain_queries_total = %v, /stats queries = %d", got, st.Queries)
	}
	var shardEntries float64
	for sid := 0; sid < 3; sid++ {
		shardEntries += routerExpositionValue(t, exposition, `caltrain_shard_entries{shard="`+strconv.Itoa(sid)+`"}`)
	}
	if shardEntries != float64(st.Entries) {
		t.Fatalf("caltrain_shard_entries sums to %v, /stats entries = %d", shardEntries, st.Entries)
	}

	// The merged shard histogram re-emits /stats shard_latency_us
	// cumulatively in seconds, bucket for bucket.
	var cum uint64
	for _, bin := range st.ShardLatencyUS {
		cum += bin.Count
		bound := `+Inf`
		if bin.LeUS >= 0 {
			bound = strconv.FormatFloat(float64(bin.LeUS)/1e6, 'g', -1, 64)
		}
		series := `caltrain_shard_query_latency_seconds_bucket{le="` + bound + `"}`
		if got := routerExpositionValue(t, exposition, series); got != float64(cum) {
			t.Fatalf("%s = %v, /stats cumulative = %d", series, got, cum)
		}
	}
	if got := routerExpositionValue(t, exposition, "caltrain_shard_query_latency_seconds_count"); got != float64(cum) {
		t.Fatalf("merged histogram _count = %v, want %d", got, cum)
	}
}

// syncBuf is an io.Writer log sink the test can read while handler
// goroutines write.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRequestIDThreadsThroughRouter: an X-Request-Id supplied to the
// router shows up in the router's request log, in the owning shard
// daemon's request log (across the HTTP hop), and on the response.
func TestRequestIDThreadsThroughRouter(t *testing.T) {
	db := testDB(t, 8, 120, 4)
	m := mustHashMap(t, 2)
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	var shardLog, routerLog syncBuf
	shardLogger := slog.New(slog.NewTextHandler(&shardLog, nil))
	replicas := make([][]Replica, len(parts))
	for i, p := range parts {
		svc := fingerprint.NewSearcherService(index.NewFlat(p),
			fingerprint.WithObservability(fingerprint.Observability{
				Component:  "shard",
				Logger:     shardLogger,
				RequestLog: true,
			}))
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		replicas[i] = []Replica{NewHTTPReplica(srv.URL, srv.Client())}
	}
	rt, err := NewRouter(m, replicas, WithObservability(fingerprint.Observability{
		Component:  "router",
		Logger:     slog.New(slog.NewTextHandler(&routerLog, nil)),
		RequestLog: true,
	}))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(5, 5))
	payload, _ := json.Marshal(fingerprint.BatchRequest{Queries: []fingerprint.QueryRequest{
		{Fingerprint: index.SynthFingerprints(rng, 1, 8, 2, 0.3)[0], Label: 0, K: 2},
		{Fingerprint: index.SynthFingerprints(rng, 1, 8, 2, 0.3)[0], Label: 1, K: 2},
	}})
	req := httptest.NewRequest(http.MethodPost, "/v1/query/batch", bytes.NewReader(payload))
	req.Header.Set(obs.RequestIDHeader, "test-123")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.RequestIDHeader); got != "test-123" {
		t.Fatalf("router response %s = %q, want test-123", obs.RequestIDHeader, got)
	}
	if !strings.Contains(routerLog.String(), "request_id=test-123") {
		t.Fatalf("router request log lacks test-123:\n%s", routerLog.String())
	}
	// The shard's log line is written just after its response is flushed;
	// give the daemon goroutine a moment before declaring it missing.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(shardLog.String(), "request_id=test-123") {
		if time.Now().After(deadline) {
			t.Fatalf("shard request logs lack test-123:\n%s", shardLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
