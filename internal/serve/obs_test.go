package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

// TestConfigObservabilityBlock: the observability block of a deployment
// config translates field for field.
func TestConfigObservabilityBlock(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`{
		"observability": {
			"metrics": false,
			"request_log": true,
			"slow_query_threshold": "250ms",
			"debug_addr": "localhost:6060"
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	o := dep.Observability
	if o == nil {
		t.Fatal("observability block not translated")
	}
	if o.Metrics == nil || *o.Metrics || !o.RequestLog || o.SlowQueryThreshold != Duration(250*time.Millisecond) || o.DebugAddr != "localhost:6060" {
		t.Fatalf("observability config: %+v", o)
	}

	// Omitted block and omitted metrics key both keep metrics on.
	for _, doc := range []string{`{}`, `{"observability": {}}`} {
		cfg, err := ParseConfig(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		dep, err := cfg.Deployment()
		if err != nil {
			t.Fatal(err)
		}
		if m := dep.Observability.Metrics; m != nil && !*m {
			t.Fatalf("%s: metrics disabled by default", doc)
		}
	}
}

// TestConfigObservabilityRejects: invalid observability knobs fail at
// translate time instead of being silently ignored.
func TestConfigObservabilityRejects(t *testing.T) {
	if _, err := ParseConfig(strings.NewReader(`{"observability": {"slow_queries": "1s"}}`)); err == nil {
		t.Error("unknown observability field accepted")
	}
	translate := []struct {
		name string
		doc  string
	}{
		{"negative slow_query_threshold", `{"observability": {"slow_query_threshold": "-1s"}}`},
		{"debug_addr without port", `{"observability": {"debug_addr": "localhost"}}`},
	}
	for _, c := range translate {
		cfg, err := ParseConfig(strings.NewReader(c.doc))
		if err != nil {
			t.Errorf("%s: failed at parse (%v), want translate failure", c.name, err)
			continue
		}
		if _, err := cfg.Deployment(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestConfigShardedDeploymentServesMetrics: the acceptance shape — a
// config-declared sharded topology answers GET /v1/metrics with
// lint-clean Prometheus text whose query-latency bucket counts match
// the aggregated /stats.
func TestConfigShardedDeploymentServesMetrics(t *testing.T) {
	db := testDB(t, 8, 150, 6)
	cfg, err := ParseConfig(strings.NewReader(
		`{"backend": {"kind": "flat"}, "shards": 3, "observability": {"request_log": false}}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dep.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())
	for label := 0; label < 6; label++ {
		if _, err := client.QueryBatch([]fingerprint.QueryRequest{
			{Fingerprint: make([]float32, 8), Label: label, K: 2},
		}); err != nil {
			t.Fatal(err)
		}
	}

	exposition, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Lint(strings.NewReader(exposition)); err != nil {
		t.Fatalf("deployment exposition fails lint: %v\n%s", err, exposition)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var cum uint64
	for _, bin := range st.LatencyUS {
		cum += bin.Count
		bound := `+Inf`
		if bin.LeUS >= 0 {
			bound = strconv.FormatFloat(float64(bin.LeUS)/1e6, 'g', -1, 64)
		}
		series := `caltrain_query_latency_seconds_bucket{le="` + bound + `"} ` + strconv.FormatUint(cum, 10)
		if !strings.Contains(exposition, series+"\n") {
			t.Fatalf("exposition lacks %q:\n%s", series, exposition)
		}
	}
	if !strings.Contains(exposition, "caltrain_router_shards 3\n") {
		t.Fatalf("exposition lacks caltrain_router_shards 3:\n%s", exposition)
	}
}

// TestConfigSingleDeploymentServesMetrics: a single-service deployment
// declares caltrain_linkage_resident_bytes once; the scrape (lint-clean)
// and /stats report the same four parts, which track an ingest and add
// up to what the layout promises per entry.
func TestConfigSingleDeploymentServesMetrics(t *testing.T) {
	const dim, n = 8, 600
	db := testDB(t, dim, n, 3)
	cfg, err := ParseConfig(strings.NewReader(`{"backend": {"kind": "ivf", "nlist": 4}, "volatile_writes": true}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dep.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())

	parts := func() map[string]int64 {
		t.Helper()
		exposition, err := client.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.Lint(strings.NewReader(exposition)); err != nil {
			t.Fatalf("deployment exposition fails lint: %v\n%s", err, exposition)
		}
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.LinkageResidentBytes) != 4 {
			t.Fatalf("/stats linkage_resident_bytes = %v, want rows, provenance, class_index and index", st.LinkageResidentBytes)
		}
		for part, bytes := range st.LinkageResidentBytes {
			series := fingerprint.ResidentBytesMetric + `{part="` + part + `"} ` + strconv.FormatInt(bytes, 10)
			if bytes <= 0 || !strings.Contains(exposition, series+"\n") {
				t.Fatalf("exposition lacks %q:\n%s", series, exposition)
			}
		}
		return st.LinkageResidentBytes
	}
	before := parts()
	// testDB builds by Add: rows and columns sit in chunks (at most one
	// spare chunk per column, and per class, whose rows are a column of
	// their own), every entry has a class slot, and the index keeps a
	// database index and a list position per entry besides its centroids,
	// nothing of a linkage.
	if rows := before["rows"]; rows < n*dim*4 || rows > (n+256)*dim*4 {
		t.Errorf("rows = %d bytes for %d × %d floats", rows, n, dim)
	}
	if p := before["provenance"]; p < n*40 || p > (n+256)*40+1024 {
		t.Errorf("provenance = %d bytes for %d entries at 40 B", p, n)
	}
	if c := before["class_index"]; c < 2*n*4 || c > (2*n+4*256)*4 { // per entry a class-list entry and a class slot
		t.Errorf("class_index = %d bytes for %d entries", c, n)
	}
	if x := before["index"]; x < n*8 || x > n*8+3*2*4*dim*4 {
		t.Errorf("index = %d bytes: not 8 B an entry plus 3 labels' 4 centroids in two layouts", x)
	}

	entries := make([]fingerprint.IngestEntry, 200)
	for i := range entries {
		entries[i] = fingerprint.IngestEntry{Fingerprint: make([]float32, dim), Label: i % 3, Source: "late"}
	}
	if _, err := client.Ingest(entries); err != nil {
		t.Fatal(err)
	}
	// 200 of 800 entries is the default drift threshold: let the
	// background retrain land, or it may swap the index between the
	// scrape and /stats.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingest != nil && st.Ingest.Retrains > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no retrain after ingesting to the drift threshold: %+v", st.Ingest)
		}
	}
	after := parts()
	for _, part := range []string{"rows", "provenance", "index"} {
		if after[part] <= before[part] {
			t.Errorf("%s did not grow with %d ingested entries: %d → %d", part, len(entries), before[part], after[part])
		}
	}
}

// TestConfigMetricsFalseRemovesEndpoint: "metrics": false removes
// GET /v1/metrics from the built handler.
func TestConfigMetricsFalseRemovesEndpoint(t *testing.T) {
	db := testDB(t, 8, 40, 2)
	cfg, err := ParseConfig(strings.NewReader(`{"observability": {"metrics": false}}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dep.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/metrics with metrics:false: status %d", rec.Code)
	}
}

// TestListenDebug: the sidecar serves pprof and expvar on its own
// listener and refuses an empty address.
func TestListenDebug(t *testing.T) {
	if _, err := ListenDebug("", nil); err == nil {
		t.Fatal("empty debug address accepted")
	}
	l, err := ListenDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base := "http://" + l.Addr().String()
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/debug/vars" {
			var v map[string]any
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatalf("expvar body not JSON: %v", err)
			}
		}
	}
}

// TestConfigTracingBlock: the tracing block of an observability config
// translates and validates.
func TestConfigTracingBlock(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`{
		"observability": {
			"tracing": {"sample_rate": 0.25, "store": 64, "slow_always": "100ms"}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	tc := dep.Observability.Trace
	if tc == nil {
		t.Fatal("tracing block not translated")
	}
	if tc.SampleRate == nil || *tc.SampleRate != 0.25 || tc.StoreSize != 64 || tc.SlowAlways != Duration(100*time.Millisecond) {
		t.Fatalf("tracing config: %+v", tc)
	}

	for _, bad := range []string{
		`{"observability": {"tracing": {"sample_rate": 1.5}}}`,
		`{"observability": {"tracing": {"sample_rate": -0.1}}}`,
		`{"observability": {"tracing": {"slow_always": "-1s"}}}`,
	} {
		cfg, err := ParseConfig(strings.NewReader(bad))
		if err != nil {
			continue // rejected at parse time is fine too
		}
		if _, err := cfg.Deployment(); err == nil {
			t.Errorf("config %s accepted", bad)
		}
	}
}

// TestShardedDeploymentTraceParity: a routed batch against an
// in-process 2-shard deployment yields ONE trace whose span tree ties
// the layers together — the shard attempts parent under the router's
// scatter span, and the shard services' search spans parent under the
// attempts.
func TestShardedDeploymentTraceParity(t *testing.T) {
	db := testDB(t, 8, 200, 4)
	built, err := Deployment{Shards: 2}.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	store := built.TraceStore()
	if store == nil {
		t.Fatal("built deployment has no trace store")
	}

	body := `{"queries": [
		{"fingerprint": [1,0,0,0,0,0,0,0], "label": 0, "k": 3},
		{"fingerprint": [0,1,0,0,0,0,0,0], "label": 1, "k": 3}
	]}`
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/query/batch", strings.NewReader(body))
	built.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch query: status %d: %s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get(obs.TraceIDHeader)
	if traceID == "" {
		t.Fatal("response missing X-Trace-Id")
	}
	snap := store.Get(traceID)
	if snap == nil {
		t.Fatalf("trace %s not in the deployment store", traceID)
	}

	spans := map[string][]obs.SpanSnapshot{}
	byID := map[string]obs.SpanSnapshot{}
	for _, sp := range snap.Spans {
		spans[sp.Name] = append(spans[sp.Name], sp)
		byID[sp.ID] = sp
	}
	if len(spans["scatter"]) != 1 {
		t.Fatalf("want 1 scatter span, got %d (spans: %v)", len(spans["scatter"]), names(snap.Spans))
	}
	scatter := spans["scatter"][0]
	if root := byID[scatter.Parent]; root.Name != snap.Root {
		t.Fatalf("scatter parents under %q, want root %q", root.Name, snap.Root)
	}
	if len(spans["shard_attempt"]) != 2 {
		t.Fatalf("want 2 shard_attempt spans, got %d", len(spans["shard_attempt"]))
	}
	for _, at := range spans["shard_attempt"] {
		if at.Parent != scatter.ID {
			t.Fatalf("shard_attempt parents under %q, want scatter %q", at.Parent, scatter.ID)
		}
	}
	if len(spans["search"]) == 0 {
		t.Fatal("no search spans from the shard services")
	}
	for _, se := range spans["search"] {
		if byID[se.Parent].Name != "shard_attempt" {
			t.Fatalf("search parents under %q, want a shard_attempt", byID[se.Parent].Name)
		}
	}
}

func names(spans []obs.SpanSnapshot) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}
