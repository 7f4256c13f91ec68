package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the HTTP header carrying a request's ID through
// the serving tree: client → router → HTTPReplica → shard daemon. Every
// entry point generates one when the header is absent and echoes it on
// the response, so any hop's logs can be joined on it.
const RequestIDHeader = "X-Request-Id"

// TraceIDHeader is the response header naming the trace a request was
// recorded under, echoed on every response so a caller that just saw a
// slow or failed reply can fetch /v1/debug/traces/{id} from the debug
// sidecar without grepping logs first.
const TraceIDHeader = "X-Trace-Id"

// TraceParentHeader carries trace context across process hops in the
// W3C trace-context format: "00-<32 hex trace id>-<16 hex parent span
// id>-<2 hex flags>" (flag bit 0 = sampled). The router sets it on
// every replica RPC so a shard daemon's spans parent under the router's
// attempt span, joining the two processes' traces on one trace ID.
const TraceParentHeader = "traceparent"

// maxRequestIDLen caps accepted inbound request IDs; longer values are
// replaced with a fresh ID rather than flowing into logs unbounded.
const maxRequestIDLen = 128

// NewRequestID returns a fresh 16-hex-char request ID.
func NewRequestID() string {
	return randHex(8)
}

// NewTraceID returns a fresh 32-hex-char trace ID.
func NewTraceID() string {
	return randHex(16)
}

// newSpanID returns a fresh 16-hex-char span ID.
func newSpanID() string {
	return randHex(8)
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is a broken platform; IDs only need to be
		// unique enough to join logs and traces, so fall back to a fixed
		// marker that at least flags the condition.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b)
}

// ValidRequestID reports whether an inbound request ID is safe to
// propagate: non-empty, bounded, and printable ASCII with no spaces, so
// it cannot smuggle header or log-line structure.
func ValidRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' {
			return false
		}
	}
	return true
}

// SpanContext is the propagated identity of a point in a trace: which
// trace, which span to parent under, and whether the root decided to
// sample. It is what TraceParentHeader carries across the wire.
type SpanContext struct {
	// TraceID is the 32-hex-char trace identifier shared by every span
	// of the request, across every process it touches.
	TraceID string
	// SpanID is the 16-hex-char ID of the span a remote child should
	// parent under.
	SpanID string
	// Sampled is the root's head-sampling decision, carried so every
	// hop keeps (or drops) the same trace.
	Sampled bool
}

// Valid reports whether the context identifies a real trace position:
// well-formed, non-zero trace and span IDs.
func (sc SpanContext) Valid() bool {
	return validHexID(sc.TraceID, 32) && validHexID(sc.SpanID, 16)
}

// TraceParent renders the context in the W3C traceparent wire format.
func (sc SpanContext) TraceParent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-" + flags
}

// ParseTraceParent decodes a traceparent header. ok is false on a
// missing, malformed, unsupported-version, or all-zero-ID value — the
// receiver then starts a fresh trace rather than trusting garbage.
func ParseTraceParent(h string) (sc SpanContext, ok bool) {
	// "00-" + 32 + "-" + 16 + "-" + 2
	if len(h) != 55 || h[:3] != "00-" || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	sc.TraceID = h[3:35]
	sc.SpanID = h[36:52]
	flags := h[53:55]
	// Flags, unlike the IDs, may legitimately be all zeros (unsampled).
	if !sc.Valid() || !isHex(flags) {
		return SpanContext{}, false
	}
	var f byte
	for i := 0; i < 2; i++ {
		f = f<<4 | hexVal(flags[i])
	}
	sc.Sampled = f&1 == 1
	return sc, true
}

// validHexID reports whether s is exactly n lowercase hex chars and not
// all zeros (the W3C spec reserves all-zero IDs as invalid).
func validHexID(s string, n int) bool {
	if len(s) != n || !isHex(s) {
		return false
	}
	for i := 0; i < n; i++ {
		if s[i] != '0' {
			return true
		}
	}
	return false
}

// isHex reports whether s is entirely lowercase hex chars.
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func hexVal(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

// StageTiming is one named stage inside a request — the flat,
// log-friendly view of the trace's top-level spans: how long the
// request spent routing, searching the index, or appending to the WAL.
type StageTiming struct {
	Name     string
	Duration time.Duration
}

// Attr is one key=value annotation on a span (backend kind, replica
// address, shard ID).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a Trace: a name, start/end, a
// parent span, and optional attributes and an error. Spans are created
// with StartSpan and must be ended exactly once with End; all methods
// are nil-safe so instrumented paths pay nothing when no trace is
// installed.
type Span struct {
	t      *Trace
	id     string
	parent string
	name   string
	start  time.Time

	mu    sync.Mutex
	end   time.Time
	attrs []Attr
	err   string
}

// ID returns the span's 16-hex-char ID, or "" on a nil span.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Name returns the span's name, or "" on a nil span.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr annotates the span. No-op on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetError records a failure on the span. A nil error (or nil span) is
// a no-op, so call sites pass whatever they got without branching.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// End finishes the span; the first call wins, later ones are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.t.clock()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
}

// snapshot renders the span's immutable record; an unfinished span (a
// leak, or a snapshot racing the request) is measured to now.
func (s *Span) snapshot(now time.Time) SpanSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	end := s.end
	if end.IsZero() {
		end = now
	}
	out := SpanSnapshot{
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.name,
		Start:      s.start,
		DurationUS: end.Sub(s.start).Microseconds(),
		Error:      s.err,
	}
	if len(s.attrs) > 0 {
		out.Attrs = make([]Attr, len(s.attrs))
		copy(out.Attrs, s.attrs)
	}
	return out
}

// Trace is one request's span tree plus its identity: the request ID
// (log joining), the trace ID (cross-process joining), and the sampled
// flag. All methods are nil-safe, so instrumented code paths call
// TraceFrom(ctx) unconditionally and pay nothing when no middleware
// installed a trace.
type Trace struct {
	id           string // request ID
	traceID      string
	remoteParent string // inbound traceparent's span ID, "" at the origin
	sampled      atomic.Bool
	clock        func() time.Time

	mu    sync.Mutex
	spans []*Span
	root  *Span
}

// NewTrace creates a fresh, unsampled trace with the given request ID
// and a new trace ID — the origin of a request tree.
func NewTrace(id string) *Trace {
	return &Trace{id: id, traceID: NewTraceID(), clock: time.Now}
}

// NewChildTrace creates the receiving process's part of a trace begun
// elsewhere: the trace ID and sampled flag are inherited from the
// propagated context, and the first local span parents under the remote
// span — how a shard daemon's spans join the router's tree.
func NewChildTrace(id string, parent SpanContext) *Trace {
	t := &Trace{id: id, traceID: parent.TraceID, remoteParent: parent.SpanID, clock: time.Now}
	t.sampled.Store(parent.Sampled)
	return t
}

// ID returns the request ID, or "" on a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// TraceID returns the 32-hex-char trace ID, or "" on a nil trace.
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Sampled reports the head-sampling decision (false on nil).
func (t *Trace) Sampled() bool {
	return t != nil && t.sampled.Load()
}

// SetSampled records the head-sampling decision. No-op on nil.
func (t *Trace) SetSampled(v bool) {
	if t != nil {
		t.sampled.Store(v)
	}
}

// newSpan records a started span. Nil-safe: returns nil on a nil trace.
func (t *Trace) newSpan(name, parent string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{t: t, id: newSpanID(), parent: parent, name: name, start: t.clock()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// setRoot marks the request's root span (the middleware's): its direct
// children are the stages the Stages view reports.
func (t *Trace) setRoot(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	t.mu.Lock()
	if t.root == nil {
		t.root = sp
	}
	t.mu.Unlock()
}

// Root returns the request's root span, nil before the middleware
// starts one (or on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// Stages returns the finished top-level spans as flat stage timings in
// start order — the request log's stage_<name> attributes. Top level
// means direct children of the root span (when the middleware installed
// one), or spans with no local parent otherwise. Nil on a nil trace.
func (t *Trace) Stages() []StageTiming {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	root := t.root
	parent := t.remoteParent
	t.mu.Unlock()
	if root != nil {
		parent = root.id
	}
	var out []StageTiming
	for _, sp := range spans {
		if sp == root || sp.parent != parent {
			continue
		}
		sp.mu.Lock()
		end := sp.end
		sp.mu.Unlock()
		if end.IsZero() {
			continue
		}
		out = append(out, StageTiming{Name: sp.name, Duration: end.Sub(sp.start)})
	}
	return out
}

// Snapshot renders the trace's immutable record for the trace store
// and the debug endpoints. status is the request's HTTP status.
func (t *Trace) Snapshot(status int) *TraceSnapshot {
	if t == nil {
		return nil
	}
	now := t.clock()
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	root := t.root
	t.mu.Unlock()
	out := &TraceSnapshot{
		TraceID:   t.traceID,
		RequestID: t.id,
		Sampled:   t.Sampled(),
		Status:    status,
		Error:     status >= 500,
		Spans:     make([]SpanSnapshot, len(spans)),
	}
	for i, sp := range spans {
		out.Spans[i] = sp.snapshot(now)
	}
	if root != nil {
		rs := root.snapshot(now)
		out.Root = rs.Name
		out.Start = rs.Start
		out.DurationUS = rs.DurationUS
	} else if len(out.Spans) > 0 {
		out.Root = out.Spans[0].Name
		out.Start = out.Spans[0].Start
		out.DurationUS = out.Spans[0].DurationUS
	}
	return out
}

type traceKey struct{}
type spanKey struct{}

// WithTrace attaches a trace to a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil — safe to use directly
// because every Trace method tolerates a nil receiver.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan starts a span named name under the context's current span
// (or at top level) and returns a child context carrying it. When the
// context has no trace it returns (ctx, nil) — the nil span's methods
// all no-op, so call sites need no branches:
//
//	ctx, sp := obs.StartSpan(ctx, "search")
//	defer sp.End()
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TraceFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	parent := t.remoteParent
	if cur := SpanFrom(ctx); cur != nil {
		parent = cur.id
	}
	sp := t.newSpan(name, parent)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SpanContextFrom returns the propagation context of the current
// position: the trace ID, the current span's ID, and the sampled flag —
// what an outbound RPC writes into TraceParentHeader. Invalid (and so
// not propagated) when the context has no trace or no current span.
func SpanContextFrom(ctx context.Context) SpanContext {
	t := TraceFrom(ctx)
	if t == nil {
		return SpanContext{}
	}
	spanID := t.Root().ID()
	if cur := SpanFrom(ctx); cur != nil {
		spanID = cur.id
	}
	return SpanContext{TraceID: t.traceID, SpanID: spanID, Sampled: t.Sampled()}
}

// RequestIDFrom returns the request ID carried by the context's trace,
// or "" when the context carries none.
func RequestIDFrom(ctx context.Context) string {
	return TraceFrom(ctx).ID()
}
