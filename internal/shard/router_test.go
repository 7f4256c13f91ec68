package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/ingest"
)

func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// shardedFixture splits a database across nshards local services behind
// a router and also returns a single-daemon service over the whole
// database for answer comparison.
func shardedFixture(t *testing.T, db *fingerprint.DB, nshards int, opts ...RouterOption) (*Router, *fingerprint.Service) {
	t.Helper()
	m := mustHashMap(t, nshards)
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([][]Replica, nshards)
	for i, p := range parts {
		replicas[i] = []Replica{NewLocalReplica("local", fingerprint.NewSearcherService(index.NewFlat(p)))}
	}
	rt, err := NewRouter(m, replicas, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rt, fingerprint.NewSearcherService(index.NewFlat(db))
}

func postBatch(t *testing.T, h http.Handler, reqs []fingerprint.QueryRequest) *fingerprint.BatchResponse {
	t.Helper()
	payload, err := json.Marshal(fingerprint.BatchRequest{Queries: reqs})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query/batch", bytes.NewReader(payload)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var out fingerprint.BatchResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestRouterMatchesSingleDaemon: a scatter-gathered batch returns the
// same matches, in the same order, as one daemon over the unsplit
// database (modulo shard-local indices).
func TestRouterMatchesSingleDaemon(t *testing.T) {
	db := testDB(t, 8, 400, 11)
	rt, single := shardedFixture(t, db, 4)

	rng := rand.New(rand.NewPCG(3, 3))
	reqs := make([]fingerprint.QueryRequest, 40)
	for i := range reqs {
		reqs[i] = fingerprint.QueryRequest{
			Fingerprint: index.SynthFingerprints(rng, 1, 8, 4, 0.3)[0],
			Label:       i % 11,
			K:           5,
		}
	}
	got := postBatch(t, rt.Handler(), reqs)
	want := postBatch(t, single.Handler(), reqs)
	if len(got.UnreachableShards) != 0 {
		t.Fatalf("unreachable shards on a healthy fixture: %v", got.UnreachableShards)
	}
	for i := range reqs {
		g, w := got.Results[i], want.Results[i]
		if g.Error != "" || w.Error != "" {
			t.Fatalf("result %d errored: %q / %q", i, g.Error, w.Error)
		}
		if len(g.Matches) != len(w.Matches) {
			t.Fatalf("result %d: %d matches vs %d", i, len(g.Matches), len(w.Matches))
		}
		for j := range g.Matches {
			if g.Matches[j].Distance != w.Matches[j].Distance ||
				g.Matches[j].Source != w.Matches[j].Source ||
				g.Matches[j].Hash != w.Matches[j].Hash ||
				g.Matches[j].Label != w.Matches[j].Label {
				t.Fatalf("result %d match %d diverges: %+v vs %+v", i, j, g.Matches[j], w.Matches[j])
			}
		}
	}
}

// TestRouterPerQueryErrors: a malformed query in a routed batch fails
// alone, exactly like on a single daemon.
func TestRouterPerQueryErrors(t *testing.T) {
	db := testDB(t, 8, 120, 5)
	rt, _ := shardedFixture(t, db, 2)
	reqs := []fingerprint.QueryRequest{
		{Fingerprint: db.Entry(0).F, Label: 0, K: 3},
		{Fingerprint: make(fingerprint.Fingerprint, 3), Label: 1, K: 3}, // wrong dim
	}
	resp := postBatch(t, rt.Handler(), reqs)
	if resp.Results[0].Error != "" || resp.Results[1].Error == "" {
		t.Fatalf("per-query error handling: %+v", resp.Results)
	}
	if len(resp.UnreachableShards) != 0 {
		t.Fatalf("a bad query is not an unreachable shard: %v", resp.UnreachableShards)
	}
}

// flakyHandler wraps a shard service handler so a test can take the
// shard down and bring it back.
type flakyHandler struct {
	mu   sync.Mutex
	down bool
	h    http.Handler
}

func (f *flakyHandler) setDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	down := f.down
	f.mu.Unlock()
	if down {
		panic(http.ErrAbortHandler) // kill the connection mid-request
	}
	f.h.ServeHTTP(w, r)
}

// httpSharded builds real HTTP shard daemons (httptest servers) behind
// a router; returns the router, the flaky wrapper of each shard, and
// the label each shard owns queries for.
func httpSharded(t *testing.T, db *fingerprint.DB, nshards int, opts ...RouterOption) (*Router, []*flakyHandler) {
	t.Helper()
	m := mustHashMap(t, nshards)
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	flaky := make([]*flakyHandler, nshards)
	replicas := make([][]Replica, nshards)
	for i, p := range parts {
		fh := &flakyHandler{h: fingerprint.NewSearcherService(index.NewFlat(p)).Handler()}
		srv := httptest.NewServer(fh)
		t.Cleanup(srv.Close)
		flaky[i] = fh
		replicas[i] = []Replica{NewHTTPReplica(srv.URL, srv.Client())}
	}
	rt, err := NewRouter(m, replicas, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rt, flaky
}

// TestRouterChaosShardDownMidBatch is the degraded-mode acceptance
// test: with one shard dead, a batch spanning all shards returns
// partial results naming the dead shard — never a batch-level error —
// and recovers to full results once the shard returns.
func TestRouterChaosShardDownMidBatch(t *testing.T) {
	db := testDB(t, 8, 300, 8)
	rt, flaky := httpSharded(t, db, 4,
		WithShardTimeout(2*time.Second), WithReplicaCooldown(10*time.Millisecond))

	reqs := make([]fingerprint.QueryRequest, 0, 16)
	for y := 0; y < 8; y++ {
		reqs = append(reqs,
			fingerprint.QueryRequest{Fingerprint: db.Entry(y).F, Label: y, K: 3},
			fingerprint.QueryRequest{Fingerprint: db.Entry(y).F, Label: y, K: 1})
	}
	m := rt.m
	deadShard := m.Shard(0)
	flaky[deadShard].setDown(true)

	resp := postBatch(t, rt.Handler(), reqs)
	if len(resp.UnreachableShards) != 1 {
		t.Fatalf("unreachable shards: %v", resp.UnreachableShards)
	}
	if got, want := resp.UnreachableShards[0], fmt.Sprintf("shard %d", deadShard); got != want {
		t.Fatalf("unreachable shard named %q, want %q", got, want)
	}
	okCount, failCount := 0, 0
	for i, res := range resp.Results {
		owner := m.Shard(reqs[i].Label)
		if owner == deadShard {
			if res.Error == "" {
				t.Fatalf("query %d on dead shard succeeded", i)
			}
			failCount++
		} else {
			if res.Error != "" {
				t.Fatalf("query %d on live shard failed: %s", i, res.Error)
			}
			okCount++
		}
	}
	if okCount == 0 || failCount == 0 {
		t.Fatalf("want a genuinely partial batch, got %d ok / %d failed", okCount, failCount)
	}

	// Shard recovers after its cooldown: the next batch is whole again.
	flaky[deadShard].setDown(false)
	time.Sleep(25 * time.Millisecond)
	resp = postBatch(t, rt.Handler(), reqs)
	if len(resp.UnreachableShards) != 0 {
		t.Fatalf("recovered shard still unreachable: %v", resp.UnreachableShards)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Fatalf("query %d failed after recovery: %s", i, res.Error)
		}
	}
}

// TestRouterReplicaFailover: with the preferred replica dead, the
// router fails over to the second replica and the batch fully succeeds.
func TestRouterReplicaFailover(t *testing.T) {
	db := testDB(t, 8, 200, 4)
	m := mustHashMap(t, 2)
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([][]Replica, 2)
	for i, p := range parts {
		h := fingerprint.NewSearcherService(index.NewFlat(p)).Handler()
		deadSrv := httptest.NewServer(h)
		deadSrv.Close() // first replica: connection refused
		liveSrv := httptest.NewServer(h)
		t.Cleanup(liveSrv.Close)
		replicas[i] = []Replica{
			NewHTTPReplica(deadSrv.URL, nil),
			NewHTTPReplica(liveSrv.URL, liveSrv.Client()),
		}
	}
	rt, err := NewRouter(m, replicas, WithShardTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []fingerprint.QueryRequest{
		{Fingerprint: db.Entry(0).F, Label: 0, K: 3},
		{Fingerprint: db.Entry(1).F, Label: 1, K: 3},
		{Fingerprint: db.Entry(2).F, Label: 2, K: 3},
		{Fingerprint: db.Entry(3).F, Label: 3, K: 3},
	}
	resp := postBatch(t, rt.Handler(), reqs)
	if len(resp.UnreachableShards) != 0 {
		t.Fatalf("failover failed: %v", resp.UnreachableShards)
	}
	for i, res := range resp.Results {
		if res.Error != "" || len(res.Matches) == 0 {
			t.Fatalf("result %d after failover: %+v", i, res)
		}
	}
	// The dead replica is now in cooldown: both shards report healthy
	// because the live replicas answer.
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after failover: %d %s", rec.Code, rec.Body.String())
	}
}

// TestRouterSingleQuery routes POST /query to the owning shard and
// turns an unreachable owner into 502, not a silent empty result.
func TestRouterSingleQuery(t *testing.T) {
	db := testDB(t, 8, 200, 6)
	rt, flaky := httpSharded(t, db, 3, WithShardTimeout(time.Second))

	body, _ := json.Marshal(fingerprint.QueryRequest{Fingerprint: db.Entry(0).F, Label: 0, K: 4})
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}
	var resp fingerprint.QueryResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 4 {
		t.Fatalf("got %d matches", len(resp.Matches))
	}

	flaky[rt.m.Shard(0)].setDown(true)
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("query to dead shard: status %d", rec.Code)
	}
}

// TestRouterAggregatedStats: /stats sums shard entries, reports
// per-shard counters, and rolls shard latency histograms into one.
func TestRouterAggregatedStats(t *testing.T) {
	db := testDB(t, 8, 240, 6)
	rt, _ := shardedFixture(t, db, 3)
	reqs := make([]fingerprint.QueryRequest, 12)
	for i := range reqs {
		reqs[i] = fingerprint.QueryRequest{Fingerprint: db.Entry(i).F, Label: i % 6, K: 2}
	}
	postBatch(t, rt.Handler(), reqs)

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st StatsResponse
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Index != "router" {
		t.Fatalf("index kind %q", st.Index)
	}
	if st.Entries != db.Len() {
		t.Fatalf("aggregated entries %d, want %d", st.Entries, db.Len())
	}
	if len(st.Shards) != 3 {
		t.Fatalf("per-shard stats: %d", len(st.Shards))
	}
	if st.Queries != 12 || st.BatchRequests != 1 {
		t.Fatalf("router counters: %d queries, %d batches", st.Queries, st.BatchRequests)
	}
	var shardQueries, rolled uint64
	for _, s := range st.Shards {
		shardQueries += s.Queries
	}
	if shardQueries != 12 {
		t.Fatalf("shard-side query counters sum to %d", shardQueries)
	}
	for _, bin := range st.ShardLatencyUS {
		rolled += bin.Count
	}
	// Each involved shard observed one sub-batch.
	if rolled == 0 {
		t.Fatal("rolled-up shard latency histogram is empty")
	}
	if len(st.LatencyUS) == 0 || st.LatencyUS[len(st.LatencyUS)-1].LeUS != -1 {
		t.Fatalf("router latency bins malformed: %+v", st.LatencyUS)
	}
}

// TestRouterRespectsLimits: an over-limit batch is rejected before any
// shard is contacted.
func TestRouterRespectsLimits(t *testing.T) {
	db := testDB(t, 8, 60, 3)
	rt, _ := shardedFixture(t, db, 2, WithRouterMaxBatch(2))
	reqs := []fingerprint.QueryRequest{
		{Fingerprint: db.Entry(0).F, Label: 0, K: 1},
		{Fingerprint: db.Entry(1).F, Label: 1, K: 1},
		{Fingerprint: db.Entry(2).F, Label: 2, K: 1},
	}
	payload, _ := json.Marshal(fingerprint.BatchRequest{Queries: reqs})
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query/batch", bytes.NewReader(payload)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("over-limit batch: status %d", rec.Code)
	}
	rt2, _ := shardedFixture(t, db, 2, WithRouterMaxBodyBytes(16))
	rec = httptest.NewRecorder()
	rt2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query/batch", bytes.NewReader(payload)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-size body: status %d", rec.Code)
	}
}

// TestRouterShardRejectionIsNotUnreachable: a healthy daemon rejecting
// a sub-batch (its own -max-batch lower than the router's) yields
// per-result errors carrying the daemon's reason, but the shard is not
// reported unreachable and its replica takes no health cooldown.
func TestRouterShardRejectionIsNotUnreachable(t *testing.T) {
	db := testDB(t, 8, 200, 4)
	m := mustHashMap(t, 2)
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([][]Replica, 2)
	for i, p := range parts {
		// Shard daemons cap batches at 2; the router allows far more.
		svc := fingerprint.NewSearcherService(index.NewFlat(p), fingerprint.WithMaxBatch(2))
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		replicas[i] = []Replica{NewHTTPReplica(srv.URL, srv.Client())}
	}
	rt, err := NewRouter(m, replicas, WithShardTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// 8 queries on one label: a sub-batch of 8 to one shard, over its cap.
	reqs := make([]fingerprint.QueryRequest, 8)
	for i := range reqs {
		reqs[i] = fingerprint.QueryRequest{Fingerprint: db.Entry(0).F, Label: 0, K: 1}
	}
	resp := postBatch(t, rt.Handler(), reqs)
	if len(resp.UnreachableShards) != 0 {
		t.Fatalf("a rejecting shard was reported unreachable: %v", resp.UnreachableShards)
	}
	for i, res := range resp.Results {
		if res.Error == "" || !strings.Contains(res.Error, "exceeds limit 2") {
			t.Fatalf("result %d should carry the daemon's rejection, got %+v", i, res)
		}
	}
	// No cooldown happened: every replica still reports healthy.
	for _, states := range rt.shards {
		for _, s := range states {
			if !s.healthy(time.Now()) {
				t.Fatal("rejection put a healthy replica on cooldown")
			}
		}
	}
	// A conforming batch right after succeeds without failover delay.
	ok := postBatch(t, rt.Handler(), reqs[:2])
	if len(ok.UnreachableShards) != 0 || ok.Results[0].Error != "" {
		t.Fatalf("follow-up batch: %+v", ok)
	}
}

// TestRouterFailsOverOn5xx: a replica answering 500 is a health event
// — the router fails over to the next replica and cools the faulty one
// down — unlike a 4xx rejection, which is definitive.
func TestRouterFailsOverOn5xx(t *testing.T) {
	db := testDB(t, 8, 120, 3)
	m := mustHashMap(t, 1)
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "backend daemon gone", http.StatusBadGateway)
	}))
	t.Cleanup(broken.Close)
	live := httptest.NewServer(fingerprint.NewSearcherService(index.NewFlat(parts[0])).Handler())
	t.Cleanup(live.Close)
	rt, err := NewRouter(m, [][]Replica{{
		NewHTTPReplica(broken.URL, broken.Client()),
		NewHTTPReplica(live.URL, live.Client()),
	}}, WithShardTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	resp := postBatch(t, rt.Handler(), []fingerprint.QueryRequest{
		{Fingerprint: db.Entry(0).F, Label: 0, K: 2},
	})
	if len(resp.UnreachableShards) != 0 || resp.Results[0].Error != "" {
		t.Fatalf("failover on 5xx failed: %+v", resp)
	}
	if !rt.shards[0][1].healthy(time.Now()) {
		t.Fatal("live replica marked unhealthy")
	}
	if rt.shards[0][0].healthy(time.Now()) {
		t.Fatal("5xx replica took no cooldown")
	}
}

// TestRouterHealthzDegraded reports 503 and names dead shards.
func TestRouterHealthzDegraded(t *testing.T) {
	db := testDB(t, 8, 120, 4)
	rt, flaky := httpSharded(t, db, 2, WithShardTimeout(time.Second))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy router reports %d", rec.Code)
	}
	flaky[1].setDown(true)
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded router reports %d", rec.Code)
	}
	var hz HealthzResponse
	if err := json.NewDecoder(rec.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || len(hz.UnreachableShards) != 1 || hz.UnreachableShards[0] != "shard 1" {
		t.Fatalf("healthz body: %+v", hz)
	}
}

// hungReplica accepts every call and answers none: each method blocks
// until its context is done — a replica whose host stopped responding
// without closing connections.
type hungReplica struct{}

func (hungReplica) QueryBatch(ctx context.Context, _ []fingerprint.QueryRequest) (*fingerprint.BatchResponse, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (hungReplica) Healthz(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }
func (hungReplica) Stats(ctx context.Context) (*fingerprint.StatsResponse, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (hungReplica) Addr() string { return "hung" }

// TestRouterHealthFanoutsSkipCooledReplica: the health and stats
// fan-outs try replicas healthy-first like the read path. A hung first
// replica costs one query its whole shard timeout and is cooled down;
// after that /v1/healthz and /v1/stats must reach the live second
// replica at once instead of spending the shared budget on the hung one
// and reporting the shard unreachable.
func TestRouterHealthFanoutsSkipCooledReplica(t *testing.T) {
	const timeout = 600 * time.Millisecond
	db := testDB(t, 8, 40, 2)
	live := NewLocalReplica("live", fingerprint.NewSearcherService(index.NewFlat(db)))
	rt, err := NewRouter(mustHashMap(t, 1), [][]Replica{{hungReplica{}, live}},
		WithShardTimeout(timeout), WithReplicaCooldown(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	resp := postBatch(t, rt.Handler(), []fingerprint.QueryRequest{{Fingerprint: db.Entry(0).F, Label: 0, K: 1}})
	if len(resp.UnreachableShards) != 1 {
		t.Fatalf("the hung replica should have spent the query's shard timeout: %+v", resp)
	}

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		start := time.Now()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if took := time.Since(start); took > timeout/2 {
			t.Fatalf("GET %s took %v: the cooled-down replica was tried first (shard timeout %v)", path, took, timeout)
		}
		return rec
	}
	if rec := get("/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz with a live second replica: %d %s", rec.Code, rec.Body)
	}
	var st StatsResponse
	if err := json.NewDecoder(get("/v1/stats").Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.UnreachableShards) != 0 || len(st.Shards) != 1 || st.Shards[0].Replica != "live" {
		t.Fatalf("stats with a live second replica: %+v", st)
	}
}

// TestReplicaCooldownSkipsDeadReplica: after a failure the dead replica
// is not retried until its cooldown expires.
func TestReplicaCooldownSkipsDeadReplica(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := &replicaState{}
	if !s.healthy(clock()) {
		t.Fatal("fresh replica unhealthy")
	}
	s.markDown(clock(), time.Second)
	if s.healthy(clock()) {
		t.Fatal("replica healthy immediately after failure")
	}
	now = now.Add(500 * time.Millisecond)
	if s.healthy(clock()) {
		t.Fatal("replica healthy mid-cooldown")
	}
	now = now.Add(600 * time.Millisecond)
	if !s.healthy(clock()) {
		t.Fatal("replica still down after cooldown")
	}
	// Consecutive failures extend the cooldown exponentially: these are
	// failures 2 and 3, so the backoff reaches 1s << 2.
	s.markDown(clock(), time.Second)
	s.markDown(clock(), time.Second)
	if s.downUntil.Sub(now) != 4*time.Second {
		t.Fatalf("third consecutive failure cooldown %v, want 4s", s.downUntil.Sub(now))
	}
	s.markUp()
	if !s.healthy(clock()) {
		t.Fatal("markUp did not clear cooldown")
	}
}

// TestRouterServeLifecycle drives Router.Serve with a real listener and
// a context cancel, the path caltrain-router uses.
func TestRouterServeLifecycle(t *testing.T) {
	db := testDB(t, 8, 90, 3)
	rt, _ := shardedFixture(t, db, 3)
	l, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rt.Serve(ctx, l, time.Second) }()
	client := fingerprint.NewClient("http://"+l.Addr().String(), nil)
	deadline := time.Now().Add(5 * time.Second)
	for client.Healthz() != nil {
		if time.Now().After(deadline) {
			t.Fatal("router never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := client.QueryBatch([]fingerprint.QueryRequest{{Fingerprint: db.Entry(0).F, Label: 0, K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" {
		t.Fatalf("routed query failed: %s", resp.Results[0].Error)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("router did not drain on cancel")
	}
}

// --- Write fan-out ---------------------------------------------------------

// ingestShardedFixture builds nshards shards with nreplicas
// ingest-enabled local replicas each (every replica its own copy of the
// shard database, its own WAL, its own index — exactly the production
// replica model), fronted by a router.
func ingestShardedFixture(t *testing.T, db *fingerprint.DB, nshards, nreplicas int, opts ...RouterOption) (*Router, [][]*fingerprint.Service) {
	t.Helper()
	m := mustHashMap(t, nshards)
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([][]Replica, nshards)
	services := make([][]*fingerprint.Service, nshards)
	for i, p := range parts {
		for j := 0; j < nreplicas; j++ {
			copyDB := p.Snapshot(-1)
			flat := index.NewFlat(copyDB)
			svc := fingerprint.NewSearcherService(flat)
			st, err := ingest.Open(t.TempDir(), copyDB, flat, ingest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			svc.SetIngester(st)
			replicas[i] = append(replicas[i], NewLocalReplica(fmt.Sprintf("shard%d-replica%d", i, j), svc))
			services[i] = append(services[i], svc)
		}
	}
	rt, err := NewRouter(m, replicas, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rt, services
}

func postIngest(t *testing.T, h http.Handler, entries []fingerprint.IngestEntry, wantStatus int) *fingerprint.IngestResponse {
	t.Helper()
	payload, err := json.Marshal(fingerprint.IngestRequest{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(payload)))
	if rec.Code != wantStatus {
		t.Fatalf("ingest status %d (want %d): %s", rec.Code, wantStatus, rec.Body.String())
	}
	if rec.Code != http.StatusOK {
		return nil
	}
	var out fingerprint.IngestResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestRouterIngestFanout: a routed batch lands on every replica of each
// entry's owning shard, and the new entries answer queries through the
// router immediately.
func TestRouterIngestFanout(t *testing.T) {
	db := testDB(t, 8, 200, 6)
	rt, services := ingestShardedFixture(t, db, 2, 2)
	m := mustHashMap(t, 2)

	rng := rand.New(rand.NewPCG(41, 1))
	entries := make([]fingerprint.IngestEntry, 18)
	for i := range entries {
		entries[i] = fingerprint.IngestEntry{
			Fingerprint: index.SynthFingerprints(rng, 1, 8, 2, 0.2)[0],
			Label:       i % 6,
			Source:      "fresh",
			Hash:        strings.Repeat("ab", 32),
		}
	}
	resp := postIngest(t, rt.Handler(), entries, http.StatusOK)
	if resp.Accepted != len(entries) || resp.Failed != 0 || len(resp.FailedShards) != 0 || len(resp.DegradedReplicas) != 0 {
		t.Fatalf("healthy fan-out: %+v", resp)
	}

	// Every replica of each shard holds exactly its shard's share.
	perShard := map[int]int{}
	for _, e := range entries {
		perShard[m.Shard(e.Label)]++
	}
	for sid, svcs := range services {
		for j, svc := range svcs {
			base := 0
			for i := 0; i < db.Len(); i++ {
				if m.Shard(db.Entry(i).Y) == sid {
					base++
				}
			}
			if got := svc.Searcher().Len(); got != base+perShard[sid] {
				t.Fatalf("shard %d replica %d: %d entries, want %d", sid, j, got, base+perShard[sid])
			}
		}
	}

	// The router serves the new entries back.
	for i, e := range entries {
		reqs := []fingerprint.QueryRequest{{Fingerprint: e.Fingerprint, Label: e.Label, K: 1}}
		out := postBatch(t, rt.Handler(), reqs)
		if out.Results[0].Error != "" || len(out.Results[0].Matches) != 1 {
			t.Fatalf("entry %d not queryable: %+v", i, out.Results[0])
		}
		if out.Results[0].Matches[0].Source != "fresh" {
			t.Fatalf("entry %d nearest neighbour is %q, want the ingested entry", i, out.Results[0].Matches[0].Source)
		}
	}
}

// deadWriteReplica answers reads but fails every write — a replica
// whose disk died.
type deadWriteReplica struct {
	Replica
}

func (d deadWriteReplica) Ingest(context.Context, []fingerprint.IngestEntry) (*fingerprint.IngestResponse, error) {
	return nil, fmt.Errorf("disk on fire")
}

// TestRouterIngestQuorum: with the default majority quorum a single
// replica failure still accepts the batch (naming the laggard in
// degraded_replicas); when the quorum cannot be met the shard's entries
// are reported failed, mirroring the read path's partial degradation.
func TestRouterIngestQuorum(t *testing.T) {
	db := testDB(t, 8, 100, 3)
	// One shard, three replicas, one of them write-dead: majority 2 of 3
	// still acknowledges.
	m := mustHashMap(t, 1)
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	makeReplica := func(name string) Replica {
		copyDB := parts[0].Snapshot(-1)
		flat := index.NewFlat(copyDB)
		svc := fingerprint.NewSearcherService(flat)
		st, err := ingest.Open(t.TempDir(), copyDB, flat, ingest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		svc.SetIngester(st)
		return NewLocalReplica(name, svc)
	}
	good1, good2 := makeReplica("good-1"), makeReplica("good-2")
	dead := deadWriteReplica{makeReplica("dead-1")}
	rt, err := NewRouter(m, [][]Replica{{good1, good2, dead}})
	if err != nil {
		t.Fatal(err)
	}
	entries := []fingerprint.IngestEntry{{Fingerprint: db.Entry(0).F, Label: 0, Source: "w"}}
	resp := postIngest(t, rt.Handler(), entries, http.StatusOK)
	if resp.Accepted != 1 || resp.Failed != 0 {
		t.Fatalf("majority quorum: %+v", resp)
	}
	if len(resp.DegradedReplicas) != 1 || resp.DegradedReplicas[0] != "dead-1" {
		t.Fatalf("degraded replicas: %v", resp.DegradedReplicas)
	}

	// Demand all three acknowledgments and the same batch fails the
	// shard — nothing is reported durable.
	rtAll, err := NewRouter(m, [][]Replica{{makeReplica("a"), makeReplica("b"), deadWriteReplica{makeReplica("dead-2")}}},
		WithWriteQuorum(3))
	if err != nil {
		t.Fatal(err)
	}
	resp = postIngest(t, rtAll.Handler(), entries, http.StatusOK)
	if resp.Accepted != 0 || resp.Failed != 1 {
		t.Fatalf("all-replica quorum: %+v", resp)
	}
	if len(resp.FailedShards) != 1 || resp.FailedShards[0] != "shard 0" {
		t.Fatalf("failed shards: %v", resp.FailedShards)
	}

	// A met quorum is authoritative over a divergent replica's 4xx
	// rejection: the entries are durable on a majority, so reporting
	// them failed would invite a duplicating retry. The rejector is
	// degraded, not authoritative.
	rtRej, err := NewRouter(m, [][]Replica{{makeReplica("c"), makeReplica("d"), rejectingReplica{makeReplica("fussy")}}})
	if err != nil {
		t.Fatal(err)
	}
	resp = postIngest(t, rtRej.Handler(), entries, http.StatusOK)
	if resp.Accepted != 1 || resp.Failed != 0 {
		t.Fatalf("quorum vs rejector: %+v", resp)
	}
	if len(resp.DegradedReplicas) != 1 || resp.DegradedReplicas[0] != "fussy" {
		t.Fatalf("rejector not degraded: %v", resp.DegradedReplicas)
	}
}

// rejectingReplica 4xx-refuses every write — a replica whose daemon was
// misconfigured with stricter limits than its peers.
type rejectingReplica struct {
	Replica
}

func (r rejectingReplica) Ingest(context.Context, []fingerprint.IngestEntry) (*fingerprint.IngestResponse, error) {
	return nil, &fingerprint.APIError{Status: http.StatusBadRequest, Code: fingerprint.ErrCodeBadRequest, Message: "batch too rich for my blood"}
}

// TestRouterIngestRejectsBadBatch: everything the router can validate
// (hashes, labels, intra-batch dimensions) is a 400 before any shard
// sees a byte — a multi-shard batch is not globally atomic, so nothing
// may be applied before validation. What only the daemons can check
// (the deployment's database dimension) comes back as a per-shard
// definitive rejection in a 200, with nothing applied anywhere.
func TestRouterIngestRejectsBadBatch(t *testing.T) {
	db := testDB(t, 8, 60, 3)
	rt, services := ingestShardedFixture(t, db, 2, 1)
	nothingApplied := func() {
		t.Helper()
		for sid, svcs := range services {
			for _, svc := range svcs {
				if st := svc.StatsSnapshot(); st.Ingest != nil && st.Ingest.Accepted != 0 {
					t.Fatalf("shard %d applied part of a rejected batch: %+v", sid, st.Ingest)
				}
			}
		}
	}
	mixedDims := []fingerprint.IngestEntry{
		{Fingerprint: make([]float32, 8), Label: 0, Source: "ok"},
		{Fingerprint: make([]float32, 3), Label: 1, Source: "wrong-dim"},
	}
	postIngest(t, rt.Handler(), mixedDims, http.StatusBadRequest)
	nothingApplied()
	badHash := []fingerprint.IngestEntry{{Fingerprint: make([]float32, 8), Label: 0, Hash: "zz"}}
	postIngest(t, rt.Handler(), badHash, http.StatusBadRequest)
	nothingApplied()
	badLabel := []fingerprint.IngestEntry{{Fingerprint: make([]float32, 8), Label: -4}}
	postIngest(t, rt.Handler(), badLabel, http.StatusBadRequest)
	nothingApplied()

	// Uniformly wrong dimension passes the router's structural checks
	// but every daemon refuses it: per-shard rejection, nothing applied.
	wrongDim := []fingerprint.IngestEntry{
		{Fingerprint: make([]float32, 5), Label: 0},
		{Fingerprint: make([]float32, 5), Label: 1},
	}
	resp := postIngest(t, rt.Handler(), wrongDim, http.StatusOK)
	if resp.Accepted != 0 || resp.Failed != 2 || len(resp.ShardErrors) == 0 {
		t.Fatalf("wrong-dim batch: %+v", resp)
	}
	nothingApplied()

	// A read-only deployment (no ingesters) refuses writes: 501 from
	// every replica → shard failure, reported — but the replicas stay
	// healthy for reads: a daemon without -wal is alive, not faulty.
	rtRO, _ := shardedFixture(t, db, 2)
	resp = postIngest(t, rtRO.Handler(), []fingerprint.IngestEntry{{Fingerprint: make([]float32, 8), Label: 0}}, http.StatusOK)
	if resp.Accepted != 0 || resp.Failed != 1 {
		t.Fatalf("read-only deployment: %+v", resp)
	}
	for sid, states := range rtRO.shards {
		for _, st := range states {
			if !st.healthy(time.Now()) {
				t.Fatalf("shard %d replica %s cooled down by a write to a read-only deployment", sid, st.r.Addr())
			}
		}
	}
}
