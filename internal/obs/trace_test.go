package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: newSpanID(), Sampled: true}
	if !sc.Valid() {
		t.Fatalf("fresh span context invalid: %+v", sc)
	}
	got, ok := ParseTraceParent(sc.TraceParent())
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	sc.Sampled = false
	got, ok = ParseTraceParent(sc.TraceParent())
	if !ok || got != sc {
		t.Fatalf("unsampled round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestParseTraceParentRejections(t *testing.T) {
	valid := SpanContext{TraceID: NewTraceID(), SpanID: newSpanID()}.TraceParent()
	bad := []string{
		"",
		valid[:len(valid)-1],   // truncated
		"01" + valid[2:],       // unsupported version
		strings.ToUpper(valid), // uppercase hex is invalid per spec
		"00-" + strings.Repeat("0", 32) + "-" + valid[36:], // all-zero trace ID
		valid[:36] + strings.Repeat("0", 16) + valid[52:],  // all-zero span ID
		strings.Replace(valid, "-", "_", 1),
	}
	for _, h := range bad {
		if _, ok := ParseTraceParent(h); ok {
			t.Errorf("ParseTraceParent(%q) accepted", h)
		}
	}
}

// FuzzParseTraceParent holds the traceparent decoder to the W3C shape
// on any header value: an accepted one names non-zero lowercase-hex
// trace and span IDs, re-renders through TraceParent as the same header
// with only the flags normalized to 00/01 by their sampled bit, and
// parses back to the same context; everything else is refused (ok
// false, zero context), never a panic.
func FuzzParseTraceParent(f *testing.F) {
	valid := SpanContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7", Sampled: true}.TraceParent()
	for _, h := range []string{
		valid,
		valid[:53] + "00",
		valid[:53] + "ff",
		valid[:len(valid)-1],
		"01" + valid[2:],
		strings.ToUpper(valid),
		"00-" + strings.Repeat("0", 32) + "-" + valid[36:],
		valid[:36] + strings.Repeat("0", 16) + valid[52:],
		valid + "-extra",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceParent(h)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("refused %q but returned %+v", h, sc)
			}
			return
		}
		if !sc.Valid() || strings.Trim(sc.TraceID, "0") == "" || strings.Trim(sc.SpanID, "0") == "" {
			t.Fatalf("accepted %q as an invalid or all-zero context %+v", h, sc)
		}
		out := sc.TraceParent()
		if out[:53] != h[:53] || (out[53:] != "00" && out[53:] != "01") {
			t.Fatalf("%q re-rendered as %q", h, out)
		}
		if again, ok := ParseTraceParent(out); !ok || again != sc {
			t.Fatalf("%q → %+v → %q → %+v (ok %v)", h, sc, out, again, ok)
		}
	})
}

// TestStartSpanHierarchy: spans parent under the context's current span
// and the snapshot preserves the tree.
func TestStartSpanHierarchy(t *testing.T) {
	tr := NewTrace("req1")
	ctx := WithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, "GET /v1/query")
	tr.setRoot(root)
	cctx, child := StartSpan(ctx, "scatter")
	_, grandchild := StartSpan(cctx, "shard_attempt")
	grandchild.SetAttr("shard", "1")
	grandchild.SetError(errors.New("replica down"))
	grandchild.End()
	child.End()
	root.End()

	snap := tr.Snapshot(200)
	if snap.Root != "GET /v1/query" {
		t.Fatalf("snapshot root %q", snap.Root)
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(snap.Spans))
	}
	byName := map[string]SpanSnapshot{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	if byName["scatter"].Parent != root.ID() {
		t.Fatalf("scatter parent %q, want root %q", byName["scatter"].Parent, root.ID())
	}
	if byName["shard_attempt"].Parent != child.ID() {
		t.Fatalf("shard_attempt parent %q, want scatter %q", byName["shard_attempt"].Parent, child.ID())
	}
	if byName["shard_attempt"].Error != "replica down" {
		t.Fatalf("span error %q", byName["shard_attempt"].Error)
	}
	if len(byName["shard_attempt"].Attrs) != 1 || byName["shard_attempt"].Attrs[0].Key != "shard" {
		t.Fatalf("span attrs %+v", byName["shard_attempt"].Attrs)
	}
}

// TestChildTraceParenting: a trace started from a propagated context
// inherits the trace ID and sampling, and its first span parents under
// the remote span — how a shard daemon joins the router's trace.
func TestChildTraceParenting(t *testing.T) {
	remote := SpanContext{TraceID: NewTraceID(), SpanID: newSpanID(), Sampled: true}
	tr := NewChildTrace("req2", remote)
	if tr.TraceID() != remote.TraceID || !tr.Sampled() {
		t.Fatalf("child trace did not inherit: id=%q sampled=%v", tr.TraceID(), tr.Sampled())
	}
	ctx := WithTrace(context.Background(), tr)
	_, root := StartSpan(ctx, "POST /v1/query/batch")
	tr.setRoot(root)
	root.End()
	snap := tr.Snapshot(200)
	if snap.Spans[0].Parent != remote.SpanID {
		t.Fatalf("root parent %q, want remote span %q", snap.Spans[0].Parent, remote.SpanID)
	}
}

// TestSpanContextFrom: the outbound propagation context names the
// current span so a downstream process parents correctly.
func TestSpanContextFrom(t *testing.T) {
	if sc := SpanContextFrom(context.Background()); sc.Valid() {
		t.Fatalf("no-trace context propagates %+v", sc)
	}
	tr := NewTrace("req3")
	tr.SetSampled(true)
	ctx := WithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	tr.setRoot(root)
	ctx, rpc := StartSpan(ctx, "rpc")
	sc := SpanContextFrom(ctx)
	if !sc.Valid() || sc.SpanID != rpc.ID() || sc.TraceID != tr.TraceID() || !sc.Sampled {
		t.Fatalf("propagation context %+v, want span %q trace %q sampled", sc, rpc.ID(), tr.TraceID())
	}
}

func TestTraceStoreKeepLanes(t *testing.T) {
	s := NewTraceStore(4)
	add := func(id string, durUS int64, fail bool) {
		status := 200
		if fail {
			status = 502
		}
		s.Add(&TraceSnapshot{TraceID: id, DurationUS: durUS, Status: status, Error: fail,
			Start: time.Unix(durUS, 0)})
	}

	// One slow and one failed trace, then a flood of fast healthy ones
	// big enough to cycle the recent ring many times over.
	add("slow00", 1_000_000, false)
	add("error0", 10, true)
	for i := 0; i < 64; i++ {
		add(fmt.Sprintf("fast%02d", i), int64(100+i), false)
	}

	if s.Get("slow00") == nil {
		t.Fatal("slow trace evicted by fast flood")
	}
	if s.Get("error0") == nil {
		t.Fatal("error trace evicted by fast flood")
	}
	if s.Get("fast00") != nil {
		t.Fatal("oldest fast trace still retained past every lane")
	}

	// List filters: errors-only and min-duration.
	errs := s.List(ListFilter{ErrorsOnly: true})
	if len(errs) != 1 || errs[0].TraceID != "error0" {
		t.Fatalf("errors-only listing: %d traces", len(errs))
	}
	slow := s.List(ListFilter{MinDuration: time.Second})
	if len(slow) != 1 || slow[0].TraceID != "slow00" {
		t.Fatalf("min-duration listing: %d traces", len(slow))
	}
	if got := s.List(ListFilter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit 2 listing returned %d", len(got))
	}
	// Newest-first ordering by start time.
	all := s.List(ListFilter{})
	for i := 1; i < len(all); i++ {
		if all[i].Start.After(all[i-1].Start) {
			t.Fatalf("listing not newest-first at %d", i)
		}
	}
}

func TestTracerPolicy(t *testing.T) {
	// Head sampling off: fast healthy traces drop, errors and slow ones
	// are kept by the tail decision.
	tr := NewTracer(TracerOptions{SampleRate: 0, StoreSize: 8, SlowAlways: 100 * time.Millisecond})
	mk := func() *Trace {
		x := NewTrace(NewRequestID())
		x.SetSampled(tr.headSample())
		return x
	}
	tr.Finish(mk(), 200, time.Millisecond)
	if tr.Store().Len() != 0 {
		t.Fatal("unsampled fast 200 stored")
	}
	tr.Finish(mk(), 500, time.Millisecond)
	if tr.Store().Len() != 1 {
		t.Fatal("5xx trace not stored")
	}
	tr.Finish(mk(), 200, 200*time.Millisecond)
	if tr.Store().Len() != 2 {
		t.Fatal("slow trace not stored")
	}

	// Rate 1 keeps everything; negative store size retains nothing.
	always := NewTracer(TracerOptions{SampleRate: 1, StoreSize: 8})
	if !always.headSample() {
		t.Fatal("rate-1 tracer did not sample")
	}
	none := NewTracer(TracerOptions{SampleRate: 1, StoreSize: -1})
	if none.Store() != nil {
		t.Fatal("negative store size kept a store")
	}
	x := NewTrace("id")
	x.SetSampled(true)
	none.Finish(x, 200, time.Millisecond) // must not panic

	// Nil tracer: everything no-ops.
	var nilT *Tracer
	if nilT.headSample() || nilT.Store() != nil || nilT.MetricFamilies() != nil {
		t.Fatal("nil tracer not inert")
	}
	nilT.Finish(x, 200, 0)
}

// TestTracerMetricFamilies: the caltrain_traces_* counters land in a
// registry and track Finish outcomes.
func TestTracerMetricFamilies(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, StoreSize: 8})
	x := NewTrace("id")
	x.SetSampled(true)
	tr.Finish(x, 200, time.Millisecond)
	y := NewTrace("id2")
	tr.Finish(y, 200, time.Millisecond)

	reg := NewRegistry()
	reg.MustRegister(tr.MetricFamilies()...)
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"caltrain_traces_sampled_total 1",
		"caltrain_traces_stored_total 1",
		"caltrain_traces_dropped_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("trace counters fail lint: %v", err)
	}
}

// TestMiddlewareErrorLog: a fast 5xx is logged at error level even with
// request logging off — the bugfix this PR carries.
func TestMiddlewareErrorLog(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := Middleware(Options{Component: "serve", Logger: logger}, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
		}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil))
	out := buf.String()
	if !strings.Contains(out, "request failed") || !strings.Contains(out, "level=ERROR") {
		t.Fatalf("fast 5xx with request logging off not error-logged:\n%q", out)
	}
	if !strings.Contains(out, "trace_id=") {
		t.Fatalf("error log missing trace_id:\n%q", out)
	}

	// And a fast 4xx must stay silent — client errors are not incidents.
	buf.Reset()
	h = Middleware(Options{Component: "serve", Logger: logger}, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadRequest)
		}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/query", nil))
	if buf.Len() != 0 {
		t.Fatalf("fast 4xx logged:\n%q", buf.String())
	}
}

// TestMiddlewareTraceHeaders: responses name their trace, inbound
// traceparent joins the upstream trace, and the tracer stores the
// finished span tree.
func TestMiddlewareTraceHeaders(t *testing.T) {
	tracer := NewTracer(TracerOptions{SampleRate: 1, StoreSize: 8})
	h := Middleware(Options{Tracer: tracer}, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			_, sp := StartSpan(r.Context(), "search")
			sp.End()
			w.WriteHeader(http.StatusOK)
		}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil))
	traceID := rec.Header().Get(TraceIDHeader)
	if !validHexID(traceID, 32) {
		t.Fatalf("response trace ID %q", traceID)
	}
	snap := tracer.Store().Get(traceID)
	if snap == nil {
		t.Fatal("finished trace not in store")
	}
	if snap.Root != "GET /v1/query" || len(snap.Spans) != 2 {
		t.Fatalf("stored trace root=%q spans=%d", snap.Root, len(snap.Spans))
	}

	// Propagated context: the daemon keeps the upstream trace ID and
	// parents its root under the remote span.
	remote := SpanContext{TraceID: NewTraceID(), SpanID: newSpanID(), Sampled: true}
	req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
	req.Header.Set(TraceParentHeader, remote.TraceParent())
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(TraceIDHeader); got != remote.TraceID {
		t.Fatalf("propagated trace ID %q, want %q", got, remote.TraceID)
	}
	snap = tracer.Store().Get(remote.TraceID)
	if snap == nil {
		t.Fatal("propagated trace not stored")
	}
	root := snap.Spans[0]
	if root.Parent != remote.SpanID {
		t.Fatalf("daemon root parent %q, want remote %q", root.Parent, remote.SpanID)
	}
}

// TestDebugHandlerTraces: the sidecar lists and fetches stored traces
// with filters, and 404s unknown IDs.
func TestDebugHandlerTraces(t *testing.T) {
	store := NewTraceStore(8)
	store.Add(&TraceSnapshot{TraceID: strings.Repeat("a", 32), Root: "GET /x", DurationUS: 50_000,
		Status: 200, Start: time.Unix(1, 0), Spans: []SpanSnapshot{{ID: "s1", Name: "GET /x"}}})
	store.Add(&TraceSnapshot{TraceID: strings.Repeat("b", 32), Root: "GET /y", DurationUS: 10,
		Status: 502, Error: true, Start: time.Unix(2, 0)})
	srv := httptest.NewServer(DebugHandler(store))
	defer srv.Close()

	getJSON := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}

	var listing struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Spans   int    `json:"spans"`
		} `json:"traces"`
	}
	if code := getJSON("/v1/debug/traces", &listing); code != http.StatusOK || len(listing.Traces) != 2 {
		t.Fatalf("listing: code %d, %d traces", code, len(listing.Traces))
	}
	if code := getJSON("/v1/debug/traces?errors=true", &listing); code != http.StatusOK ||
		len(listing.Traces) != 1 || listing.Traces[0].TraceID != strings.Repeat("b", 32) {
		t.Fatalf("errors filter: %+v", listing)
	}
	if code := getJSON("/v1/debug/traces?min_duration=1ms", &listing); code != http.StatusOK ||
		len(listing.Traces) != 1 || listing.Traces[0].TraceID != strings.Repeat("a", 32) {
		t.Fatalf("min_duration filter: %+v", listing)
	}

	var full TraceSnapshot
	if code := getJSON("/v1/debug/traces/"+strings.Repeat("a", 32), &full); code != http.StatusOK ||
		len(full.Spans) != 1 {
		t.Fatalf("get by ID: code %d spans %d", code, len(full.Spans))
	}
	var errBody map[string]string
	if code := getJSON("/v1/debug/traces/"+strings.Repeat("c", 32), &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown ID: code %d", code)
	}
	var bad map[string]string
	if code := getJSON("/v1/debug/traces?min_duration=soon", &bad); code != http.StatusBadRequest {
		t.Fatalf("bad min_duration: code %d", code)
	}
}

// TestTraceConcurrency hammers one trace and one store from many
// goroutines — span recording, snapshotting, eviction, and debug reads
// racing — and relies on -race for the verdict.
func TestTraceConcurrency(t *testing.T) {
	tracer := NewTracer(TracerOptions{SampleRate: 1, StoreSize: 16})
	store := tracer.Store()
	srv := httptest.NewServer(DebugHandler(store))
	defer srv.Close()

	var wg sync.WaitGroup
	// Writers: whole traces finishing into the store.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := NewTrace(NewRequestID())
				tr.SetSampled(true)
				ctx := WithTrace(context.Background(), tr)
				ctx, root := StartSpan(ctx, "root")
				tr.setRoot(root)
				var inner sync.WaitGroup
				for s := 0; s < 3; s++ {
					inner.Add(1)
					go func(s int) {
						defer inner.Done()
						_, sp := StartSpan(ctx, "shard_attempt")
						sp.SetAttr("shard", "x")
						if s == 0 {
							sp.SetError(errors.New("boom"))
						}
						sp.End()
					}(s)
				}
				inner.Wait()
				root.End()
				status := 200
				if i%7 == 0 {
					status = 502
				}
				tracer.Finish(tr, status, time.Duration(i)*time.Microsecond)
			}
		}(w)
	}
	// Readers: store listings, gets, and the HTTP debug surface.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, snap := range store.List(ListFilter{Limit: 10}) {
					store.Get(snap.TraceID)
				}
				resp, err := http.Get(srv.URL + "/v1/debug/traces?limit=5")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if store.Len() == 0 {
		t.Fatal("no traces retained after concurrent load")
	}
}
