package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/ingest"
)

// cachedFixture shards db across nshards linear local replicas that
// accept volatile writes, behind a router with an n-entry response
// cache. Writes apply straight to the shard database the replica
// serves, so an invalidated cache entry observably changes answers.
func cachedFixture(t *testing.T, db *fingerprint.DB, nshards, n int) *Router {
	t.Helper()
	m := mustHashMap(t, nshards)
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([][]Replica, nshards)
	for i, p := range parts {
		store, err := ingest.Open("", p, p, ingest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		svc := fingerprint.NewSearcherService(p, fingerprint.WithIngester(store))
		replicas[i] = []Replica{NewLocalReplica(fmt.Sprintf("local-%d", i), svc)}
	}
	rt, err := NewRouter(m, replicas, WithRouterResponseCache(n))
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func postQuery(t *testing.T, h http.Handler, q fingerprint.QueryRequest) *fingerprint.QueryResponse {
	t.Helper()
	payload, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(payload)))
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}
	var out fingerprint.QueryResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestRouterResponseCacheHit: a repeated single query answers from the
// cache (hit counter moves, answers identical), while a different k or
// fingerprint misses.
func TestRouterResponseCacheHit(t *testing.T) {
	db := testDB(t, 8, 200, 6)
	rt := cachedFixture(t, db, 2, 64)
	h := rt.Handler()

	q := fingerprint.QueryRequest{Fingerprint: db.Entry(0).F, Label: 0, K: 3}
	first := postQuery(t, h, q)
	if rt.cache.hits.Load() != 0 || rt.cache.misses.Load() != 1 {
		t.Fatalf("after first query: hits=%d misses=%d", rt.cache.hits.Load(), rt.cache.misses.Load())
	}
	second := postQuery(t, h, q)
	if rt.cache.hits.Load() != 1 {
		t.Fatalf("repeat query did not hit: hits=%d misses=%d", rt.cache.hits.Load(), rt.cache.misses.Load())
	}
	if len(first.Matches) != len(second.Matches) {
		t.Fatalf("cached answer diverges: %d vs %d matches", len(first.Matches), len(second.Matches))
	}
	for i := range first.Matches {
		if first.Matches[i] != second.Matches[i] {
			t.Fatalf("cached match %d diverges: %+v vs %+v", i, first.Matches[i], second.Matches[i])
		}
	}

	// Same fingerprint, different k: a distinct request, so a miss.
	q.K = 4
	postQuery(t, h, q)
	if rt.cache.hits.Load() != 1 {
		t.Fatalf("different k hit the cache: hits=%d", rt.cache.hits.Load())
	}
}

// TestRouterResponseCacheInvalidatedByIngest: a write routed to the
// owning shard invalidates that shard's cached responses — the next
// lookup misses and serves the post-write answer — while entries owned
// by other shards keep hitting.
func TestRouterResponseCacheInvalidatedByIngest(t *testing.T) {
	db := testDB(t, 8, 200, 6)
	rt := cachedFixture(t, db, 2, 64)
	h := rt.Handler()

	// Find two labels on different shards.
	la := 0
	lb := -1
	for y := 1; y < 6; y++ {
		if rt.m.Shard(y) != rt.m.Shard(la) {
			lb = y
			break
		}
	}
	if lb < 0 {
		t.Fatal("all labels on one shard")
	}

	qa := fingerprint.QueryRequest{Fingerprint: db.Entry(0).F, Label: la, K: 3}
	qb := fingerprint.QueryRequest{Fingerprint: db.Entry(1).F, Label: lb, K: 3}
	before := postQuery(t, h, qa)
	postQuery(t, h, qb)

	// Ingest an exact duplicate of qa's fingerprint under label la: the
	// post-write top match is at distance 0.
	entries := []fingerprint.IngestEntry{{Fingerprint: qa.Fingerprint, Label: la, Source: "new-party"}}
	payload, _ := json.Marshal(fingerprint.IngestRequest{Entries: entries})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(payload)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"accepted":1`) {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}

	hits := rt.cache.hits.Load()
	after := postQuery(t, h, qa)
	if rt.cache.hits.Load() != hits {
		t.Fatal("query on the written shard hit a stale cache entry")
	}
	// The duplicate ties the original at distance 0 and loses the index
	// tie-break, but it must show up in the top 3 — only a fresh scatter
	// can see it.
	var found bool
	for _, m := range after.Matches {
		found = found || m.Source == "new-party"
	}
	if !found {
		t.Fatalf("post-ingest answer is stale: %+v (before: %+v)", after.Matches, before.Matches)
	}
	// The other shard's entry survived the invalidation.
	postQuery(t, h, qb)
	if rt.cache.hits.Load() != hits+1 {
		t.Fatal("write to one shard evicted another shard's entries")
	}
}

// TestRouterResponseCacheBounded: the LRU never exceeds its capacity
// and evicts the least recently used key first.
func TestRouterResponseCacheBounded(t *testing.T) {
	c := newResponseCache(3, 1)
	resp := &fingerprint.QueryResponse{}
	for i := 0; i < 5; i++ {
		c.put(cacheKey{label: i}, 0, 0, resp)
	}
	if c.len() != 3 {
		t.Fatalf("cache holds %d entries, cap 3", c.len())
	}
	// 2,3,4 remain; touch 2 so 3 is the LRU, then insert one more.
	if _, ok := c.get(cacheKey{label: 2}); !ok {
		t.Fatal("recent entry evicted")
	}
	c.put(cacheKey{label: 5}, 0, 0, resp)
	if _, ok := c.get(cacheKey{label: 3}); ok {
		t.Fatal("LRU entry survived past capacity")
	}
	if _, ok := c.get(cacheKey{label: 2}); !ok {
		t.Fatal("recently used entry evicted instead of LRU")
	}
}

// TestRouterCacheMetrics: the hit/miss counters export through
// /v1/metrics only when the cache is enabled.
func TestRouterCacheMetrics(t *testing.T) {
	db := testDB(t, 8, 120, 4)
	rt := cachedFixture(t, db, 2, 16)
	h := rt.Handler()
	q := fingerprint.QueryRequest{Fingerprint: db.Entry(0).F, Label: 0, K: 2}
	postQuery(t, h, q)
	postQuery(t, h, q)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "caltrain_router_cache_hits_total 1") ||
		!strings.Contains(body, "caltrain_router_cache_misses_total 1") {
		t.Fatalf("cache counters missing from metrics:\n%s", body)
	}

	// Without the option the families are absent entirely.
	plain, _ := shardedFixture(t, db, 2)
	rec = httptest.NewRecorder()
	plain.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if strings.Contains(rec.Body.String(), "caltrain_router_cache") {
		t.Fatal("cache counters exported with the cache disabled")
	}
}

// TestCacheKeyDistinguishesBits: bit-level float differences (signed
// zero, NaN payloads) key distinct cache slots.
func TestCacheKeyDistinguishesBits(t *testing.T) {
	key := func(f []float32) cacheKey {
		return newCacheKey(fingerprint.QueryRequest{Fingerprint: f, Label: 1, K: 3})
	}
	a := []float32{0, 1, 2}
	b := []float32{float32(math.Copysign(0, -1)), 1, 2}
	if key(a) == key(b) {
		t.Fatal("+0 and -0 alias one cache key")
	}
	if key(a) != key([]float32{0, 1, 2}) {
		t.Fatal("equal fingerprints key differently")
	}
	if key(nil) == key([]float32{0}) {
		t.Fatal("empty and zero fingerprints alias")
	}
	nan := math.Float32frombits(0x7fc00001)
	if key([]float32{nan}) == key([]float32{math.Float32frombits(0x7fc00002)}) || key([]float32{nan}) != key([]float32{nan}) {
		t.Fatal("NaN payloads do not key by their bits")
	}
}

// TestResponseCacheMissesOnHashCollision: two fingerprints whose float
// bits collide under 64-bit FNV-1a — the hash the cache once stood in
// for the fingerprint with, so that one client could plant provenance
// for another's query — are two queries: the second misses, and each
// is answered for itself.
func TestResponseCacheMissesOnHashCollision(t *testing.T) {
	var fps [2][]float32
	var sums [2]uint64
	for i, bits := range [2][3]uint32{
		{0x3f524887, 0x3f4a4c57, 0x3f006e4f},
		{0x3fcd737d, 0x3f27d23d, 0x3f00e7b9},
	} {
		h := fnv.New64a()
		for _, b := range bits {
			fps[i] = append(fps[i], math.Float32frombits(b))
			h.Write(binary.LittleEndian.AppendUint32(nil, b))
		}
		sums[i] = h.Sum64()
	}
	if sums[0] != sums[1] {
		t.Fatalf("FNV-1a %x and %x: not a collision", sums[0], sums[1])
	}
	db := testDB(t, 3, 120, 2)
	rt := cachedFixture(t, db, 2, 16)
	plain, _ := shardedFixture(t, db, 2)
	for i, f := range fps {
		q := fingerprint.QueryRequest{Fingerprint: f, Label: 1, K: 4}
		got, want := postQuery(t, rt.Handler(), q), postQuery(t, plain.Handler(), q)
		if rt.cache.hits.Load() != 0 || rt.cache.misses.Load() != uint64(i+1) {
			t.Fatalf("fingerprint %d: hits=%d misses=%d, want 0 and %d", i, rt.cache.hits.Load(), rt.cache.misses.Load(), i+1)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fingerprint %d: answered %+v, the uncached router %+v", i, got, want)
		}
	}
}
