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
	"caltrain/internal/ingest"
	"caltrain/internal/obs"
	"caltrain/internal/obs/obstest"
)

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

	if got := obstest.Value(t, exposition, "caltrain_router_shards"); got != 3 {
		t.Fatalf("caltrain_router_shards = %v, want 3", got)
	}
	if got := obstest.Value(t, exposition, "caltrain_router_unreachable_shards"); got != 0 {
		t.Fatalf("caltrain_router_unreachable_shards = %v, want 0", got)
	}
	for _, name := range []string{"caltrain_process_resident_bytes", "caltrain_go_heap_inuse_bytes", "caltrain_go_goroutines"} {
		if got := obstest.Value(t, exposition, name); got <= 0 {
			t.Fatalf("%s = %v, want a positive reading", name, got)
		}
	}
	if got := obstest.Value(t, exposition, "caltrain_queries_total"); got != float64(st.Queries) {
		t.Fatalf("caltrain_queries_total = %v, /stats queries = %d", got, st.Queries)
	}
	var shardEntries float64
	for sid := 0; sid < 3; sid++ {
		shardEntries += obstest.Value(t, exposition, `caltrain_shard_entries{shard="`+strconv.Itoa(sid)+`"}`)
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
		if got := obstest.Value(t, exposition, series); got != float64(cum) {
			t.Fatalf("%s = %v, /stats cumulative = %d", series, got, cum)
		}
	}
	if got := obstest.Value(t, exposition, "caltrain_shard_query_latency_seconds_count"); got != float64(cum) {
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

// errorTotals reads one tier's error count both ways: the /v1/stats
// errors total and the sum of caltrain_request_errors_total over codes.
func errorTotals(t *testing.T, h http.Handler) (stats uint64, metrics float64) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st fingerprint.StatsResponse
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	return st.Errors, obstest.Sum(t, rec.Body.String(), "caltrain_request_errors_total")
}

// TestErrorsCountedOnce: on every tier — a daemon over HTTP, a service
// reached in process through a LocalReplica, the router — each failure
// moves the /v1/stats errors total and caltrain_request_errors_total by
// the same amount, one per failed query or entry, so the two pages
// never disagree.
func TestErrorsCountedOnce(t *testing.T) {
	db := testDB(t, 8, 60, 4)
	writable := func() *fingerprint.Service {
		copyDB := db.Snapshot(-1)
		flat := index.NewFlat(copyDB)
		svc := fingerprint.NewSearcherService(flat, fingerprint.WithMaxK(2), fingerprint.WithMaxBatch(2))
		st, err := ingest.Open(t.TempDir(), copyDB, flat, ingest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		svc.SetIngester(st)
		return svc
	}
	daemon, inproc, routed := writable(), writable(), writable()
	local := NewLocalReplica("local", inproc)
	m := mustHashMap(t, 1)
	rt, err := NewRouter(m, [][]Replica{{NewLocalReplica("routed", routed)}})
	if err != nil {
		t.Fatal(err)
	}
	down, err := NewRouter(m, [][]Replica{{NewHTTPReplica("http://127.0.0.1:1", nil)}})
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]http.Handler{
		"daemon": daemon.Handler(), "in-process shard": inproc.Handler(), "routed shard": routed.Handler(),
		"router": rt.Handler(), "router over a down shard": down.Handler(),
	}

	fp := func(dim int) string { return "[" + strings.TrimSuffix(strings.Repeat("0.5,", dim), ",") + "]" }
	query := func(k int) string { return `{"fingerprint":` + fp(8) + `,"label":1,"k":` + strconv.Itoa(k) + `}` }
	entry := func(dim int) string { return `{"fingerprint":` + fp(dim) + `,"label":1}` }
	post := func(tier, path, body string) func() {
		return func() { doRawRouter(t, tiers[tier], http.MethodPost, path, body) }
	}
	cases := []struct {
		name, tier string
		act        func()
		want       uint64 // errors this case adds to its tier
	}{
		{"malformed body", "daemon", post("daemon", "/v1/query", `{`), 1},
		{"k over max_k", "daemon", post("daemon", "/v1/query", query(3)), 1},
		{"batch with one bad query", "daemon", post("daemon", "/v1/query/batch", `{"queries":[`+query(1)+`,`+query(3)+`]}`), 1},
		{"oversized batch", "daemon", post("daemon", "/v1/query/batch", `{"queries":[`+query(1)+`,`+query(1)+`,`+query(1)+`]}`), 1},
		{"ingest of the wrong dimension", "daemon", post("daemon", "/v1/ingest", `{"entries":[`+entry(5)+`]}`), 1},
		{"oversized ingest", "daemon", post("daemon", "/v1/ingest", `{"entries":[`+entry(8)+`,`+entry(8)+`,`+entry(8)+`]}`), 1},
		{"ingest of the wrong dimension", "in-process shard", func() {
			local.Ingest(t.Context(), []fingerprint.IngestEntry{{Fingerprint: make([]float32, 5)}})
		}, 1},
		{"oversized ingest", "in-process shard", func() {
			e := fingerprint.IngestEntry{Fingerprint: db.Entry(0).F, Label: 1}
			local.Ingest(t.Context(), []fingerprint.IngestEntry{e, e, e})
		}, 1},
		{"oversized sub-batch", "in-process shard", func() {
			local.QueryBatch(t.Context(), make([]fingerprint.QueryRequest, 3))
		}, 1},
		{"query over the shard's max_k", "router", post("router", "/v1/query", query(3)), 1},
		{"batch with a query over the shard's max_k", "router", post("router", "/v1/query/batch", `{"queries":[`+query(1)+`,`+query(3)+`]}`), 1},
		{"ingest every shard rejects", "router", post("router", "/v1/ingest", `{"entries":[`+entry(5)+`,`+entry(5)+`]}`), 2},
		{"query to a down shard", "router over a down shard", post("router over a down shard", "/v1/query", query(1)), 1},
		{"batch to a down shard", "router over a down shard", post("router over a down shard", "/v1/query/batch", `{"queries":[`+query(1)+`,`+query(1)+`]}`), 2},
		{"ingest to a down shard", "router over a down shard", post("router over a down shard", "/v1/ingest", `{"entries":[`+entry(8)+`]}`), 1},
	}
	for _, c := range cases {
		before, _ := errorTotals(t, tiers[c.tier])
		c.act()
		stats, metrics := errorTotals(t, tiers[c.tier])
		if stats-before != c.want {
			t.Errorf("%s on the %s: /v1/stats errors moved by %d, want %d", c.name, c.tier, stats-before, c.want)
		}
		if float64(stats) != metrics {
			t.Errorf("%s on the %s: /v1/stats errors = %d, Σ caltrain_request_errors_total = %v", c.name, c.tier, stats, metrics)
		}
	}
	// The shard behind the router counted its own rejections the same way.
	for name, h := range tiers {
		if stats, metrics := errorTotals(t, h); float64(stats) != metrics {
			t.Errorf("%s: /v1/stats errors = %d, Σ caltrain_request_errors_total = %v", name, stats, metrics)
		}
	}
}
