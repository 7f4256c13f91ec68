package obs

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryWriteTextAndLint(t *testing.T) {
	r := NewRegistry()
	var hits uint64
	r.MustRegister(
		CounterFunc("caltrain_queries_total", "Total queries served.", func() float64 { return float64(hits) }),
		GaugeFunc("caltrain_entries", "Entries in the live index.", func() float64 { return 42 }),
		HistogramFunc("caltrain_query_latency_seconds", "Query latency.", func() HistogramSnapshot {
			return HistogramSnapshot{
				Buckets: []Bucket{{UpperBound: 0.001, Count: 3}, {UpperBound: 0.01, Count: 5}},
				Count:   7, Sum: 0.5,
			}
		}),
	)
	hits = 9
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP caltrain_queries_total Total queries served.\n",
		"# TYPE caltrain_queries_total counter\n",
		"caltrain_queries_total 9\n",
		"caltrain_entries 42\n",
		"# TYPE caltrain_query_latency_seconds histogram\n",
		`caltrain_query_latency_seconds_bucket{le="0.001"} 3`,
		`caltrain_query_latency_seconds_bucket{le="0.01"} 5`,
		`caltrain_query_latency_seconds_bucket{le="+Inf"} 7`,
		"caltrain_query_latency_seconds_sum 0.5\n",
		"caltrain_query_latency_seconds_count 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("registry output fails its own lint: %v", err)
	}
}

func TestRegistrySuppressesEmptyFamilies(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(SamplesFunc("caltrain_wal_bytes", "WAL bytes.", KindGauge, func() []Sample { return nil }))
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty family should render nothing, got:\n%s", buf.String())
	}
}

func TestRegistryRejectsBadFamilies(t *testing.T) {
	r := NewRegistry()
	collect := func() []Sample { return nil }
	cases := []*Family{
		{Name: "bad name", Help: "x", Kind: KindGauge, Collect: collect},
		{Name: "ok_name", Help: "x", Kind: Kind("ring"), Collect: collect},
		{Name: "ok_name2", Help: "two\nlines", Kind: KindGauge, Collect: collect},
		{Name: "no_collect", Help: "x", Kind: KindGauge},
	}
	for _, f := range cases {
		if err := r.Register(f); err == nil {
			t.Errorf("Register(%q) should fail", f.Name)
		}
	}
	if err := r.Register(&Family{Name: "dup", Help: "x", Kind: KindGauge, Collect: collect}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(&Family{Name: "dup", Help: "x", Kind: KindGauge, Collect: collect}); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(SamplesFunc("esc", `help with \ backslash`, KindGauge, func() []Sample {
		return []Sample{{Labels: []Label{{Name: "path", Value: "a\"b\\c\nd"}}, Value: 1}}
	}))
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP esc help with \\ backslash`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("escaped output fails lint: %v", err)
	}
}

func TestCounterVecConcurrent(t *testing.T) {
	v := NewCounterVec("caltrain_request_errors_total", "Errors by code.", "code")
	var wg sync.WaitGroup
	codes := []string{"bad_request", "not_found", "internal"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.Inc(codes[j%len(codes)])
			}
		}()
	}
	wg.Wait()
	var total uint64
	for _, c := range codes {
		total += v.Value(c)
	}
	if total != 8000 {
		t.Fatalf("lost increments: got %d, want 8000", total)
	}
	samples := v.Family().Collect()
	if len(samples) != 3 {
		t.Fatalf("want 3 samples, got %d", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i-1].Labels[0].Value >= samples[i].Labels[0].Value {
			t.Fatalf("samples not sorted by label value: %v", samples)
		}
	}
}

func TestLintRejections(t *testing.T) {
	cases := map[string]string{
		"sample without HELP/TYPE": "orphan_metric 1\n",
		"bad metric name":          "# HELP 9bad x\n# TYPE 9bad counter\n9bad 1\n",
		"TYPE after samples":       "# HELP m x\nm 1\n# TYPE m counter\n",
		"unknown TYPE":             "# HELP m x\n# TYPE m ring\nm 1\n",
		"duplicate sample":         "# HELP m x\n# TYPE m counter\nm 1\nm 2\n",
		"negative counter":         "# HELP m x\n# TYPE m counter\nm -1\n",
		"NaN value":                "# HELP m x\n# TYPE m gauge\nm NaN\n",
		"missing +Inf bucket": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="0.1"} 1` + "\nh_count 1\n",
		"non-monotone buckets": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="0.1"} 5` + "\n" + `h_bucket{le="1"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\nh_count 5\n",
		"count disagrees with +Inf": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_count 7\n",
		"missing HELP":   "# TYPE m counter\nm 1\n",
		"bad label name": "# HELP m x\n# TYPE m counter\n" + `m{9bad="v"} 1` + "\n",
	}
	for name, text := range cases {
		if err := Lint(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint should reject:\n%s", name, text)
		}
	}
}

func TestLintAcceptsHistogramPerLabelSet(t *testing.T) {
	text := "# HELP h x\n# TYPE h histogram\n" +
		`h_bucket{shard="0",le="0.1"} 1` + "\n" +
		`h_bucket{shard="0",le="+Inf"} 2` + "\n" +
		`h_count{shard="0"} 2` + "\n" +
		`h_bucket{shard="1",le="0.1"} 9` + "\n" +
		`h_bucket{shard="1",le="+Inf"} 9` + "\n" +
		`h_count{shard="1"} 9` + "\n"
	if err := Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("per-label-set histogram should pass: %v", err)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Error("nil trace ID should be empty")
	}
	if tr.Stages() != nil {
		t.Error("nil trace stages should be nil")
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Errorf("bare context request ID = %q, want empty", got)
	}
}

func TestTraceStages(t *testing.T) {
	tr := NewTrace("abc")
	ctx := WithTrace(context.Background(), tr)
	if RequestIDFrom(ctx) != "abc" {
		t.Fatal("request ID not carried by context")
	}
	for _, name := range []string{"search", "wal_append"} {
		sctx, sp := StartSpan(ctx, name)
		_, child := StartSpan(sctx, "fsync") // nested: not a stage
		child.End()
		sp.End()
	}
	StartSpan(ctx, "unfinished") // not a stage until it ends
	stages := tr.Stages()
	if len(stages) != 2 || stages[0].Name != "search" || stages[1].Name != "wal_append" {
		t.Fatalf("unexpected stages: %v", stages)
	}
}

func TestValidRequestID(t *testing.T) {
	if !ValidRequestID("test-123") || !ValidRequestID(NewRequestID()) {
		t.Error("reasonable IDs should validate")
	}
	for _, bad := range []string{"", "has space", "line\nbreak", "quo\"te", strings.Repeat("x", 200)} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) should be false", bad)
		}
	}
}

func TestMiddlewareRequestID(t *testing.T) {
	var seenCtxID, seenRespID string
	h := Middleware(Options{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenCtxID = RequestIDFrom(r.Context())
		seenRespID = ResponseRequestID(w)
		w.WriteHeader(http.StatusNoContent)
	}))

	// Generated when absent.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if seenCtxID == "" || seenCtxID != seenRespID {
		t.Fatalf("ctx ID %q / resp ID %q", seenCtxID, seenRespID)
	}
	if got := rec.Header().Get(RequestIDHeader); got != seenCtxID {
		t.Fatalf("response header %q, want %q", got, seenCtxID)
	}

	// Valid inbound ID propagated verbatim.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(RequestIDHeader, "test-123")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seenCtxID != "test-123" || rec.Header().Get(RequestIDHeader) != "test-123" {
		t.Fatalf("inbound ID not propagated: ctx %q header %q", seenCtxID, rec.Header().Get(RequestIDHeader))
	}

	// Invalid inbound ID replaced.
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(RequestIDHeader, "bad id with spaces")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seenCtxID == "bad id with spaces" || seenCtxID == "" {
		t.Fatalf("invalid inbound ID should be replaced, got %q", seenCtxID)
	}
}

func TestMiddlewareRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := Middleware(Options{Component: "serve", Logger: logger, RequestLog: true},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, sp := StartSpan(r.Context(), "search")
			sp.End()
			http.Error(w, "nope", http.StatusTeapot)
		}))
	req := httptest.NewRequest(http.MethodPost, "/v1/query", nil)
	req.Header.Set(RequestIDHeader, "log-me-42")
	h.ServeHTTP(httptest.NewRecorder(), req)
	out := buf.String()
	for _, want := range []string{"request_id=log-me-42", "component=serve", "status=418", "path=/v1/query", "stage_search="} {
		if !strings.Contains(out, want) {
			t.Errorf("request log missing %q:\n%s", want, out)
		}
	}
}

func TestMiddlewareSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := Middleware(Options{Logger: logger, SlowQueryThreshold: time.Nanosecond},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(time.Millisecond)
		}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if out := buf.String(); !strings.Contains(out, "level=WARN") || !strings.Contains(out, "slow request") {
		t.Fatalf("expected slow-query warn log, got:\n%s", out)
	}

	// Fast requests stay silent when RequestLog is off.
	buf.Reset()
	h = Middleware(Options{Logger: logger, SlowQueryThreshold: time.Hour},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if buf.Len() != 0 {
		t.Fatalf("fast request should not log, got:\n%s", buf.String())
	}
}

func TestResponseRequestIDUnwrapChain(t *testing.T) {
	base := httptest.NewRecorder()
	inner := &responseWriter{ResponseWriter: base, requestID: "deep-7"}
	outer := struct{ http.ResponseWriter }{inner} // plain wrapper without Unwrap
	if got := ResponseRequestID(inner); got != "deep-7" {
		t.Fatalf("direct = %q", got)
	}
	if got := ResponseRequestID(outer); got != "" {
		t.Fatalf("non-unwrappable wrapper should yield empty, got %q", got)
	}
	if got := ResponseRequestID(base); got != "" {
		t.Fatalf("bare recorder should yield empty, got %q", got)
	}
}

func TestDebugHandler(t *testing.T) {
	h := DebugHandler(nil)
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("debug handler must not serve public routes, got %d", rec.Code)
	}
}

func TestBuildInfoFamily(t *testing.T) {
	b := Build()
	if b.GoVersion == "" {
		t.Fatal("go version should always be present")
	}
	samples := BuildInfoFamily().Collect()
	if len(samples) != 1 || samples[0].Value != 1 {
		t.Fatalf("build info should be a single constant-1 sample: %v", samples)
	}
	if samples[0].Labels[0].Name != "go_version" || samples[0].Labels[0].Value != b.GoVersion {
		t.Fatalf("missing go_version label: %v", samples[0].Labels)
	}
}

// TestRuntimeFamilies: the process-health set passes the exposition
// lint, and the peak resident gauge is the VmHWM of /proc/self/status —
// present and at least the current resident set where that file exists,
// absent where it does not.
func TestRuntimeFamilies(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(RuntimeFamilies()...)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("runtime families fail the lint: %v\n%s", err, out)
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		if strings.Contains(out, "caltrain_process_peak_resident_bytes") {
			t.Fatalf("peak gauge exported without /proc/self/status:\n%s", out)
		}
		t.Skipf("no /proc/self/status: %v", err)
	}
	var peak, rss float64
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "caltrain_process_peak_resident_bytes "); ok {
			peak, _ = strconv.ParseFloat(v, 64)
		}
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			rss = kb * 1024
		}
	}
	if peak <= 0 || peak < rss/2 {
		t.Fatalf("caltrain_process_peak_resident_bytes = %v with VmRSS %v bytes:\n%s", peak, rss, out)
	}
}

func TestParseVmHWM(t *testing.T) {
	if got, ok := parseVmHWM("Name:\tcaltrain-serve\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n"); !ok || got != 2048<<10 {
		t.Errorf("VmHWM = %v, %v; want %d", got, ok, 2048<<10)
	}
	for _, status := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if got, ok := parseVmHWM(status); ok {
			t.Errorf("%q read as %v", status, got)
		}
	}
}
