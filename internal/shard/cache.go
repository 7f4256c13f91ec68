package shard

import (
	"container/list"
	"sync"
	"sync/atomic"

	"caltrain/internal/f32le"
	"caltrain/internal/fingerprint"
)

// cacheKey identifies one single-query request for the router's
// response cache: the owning label, the requested k, and the fingerprint
// itself. Hot accountability queries — the same suspect fingerprint
// checked repeatedly against the same label — repeat this triple
// exactly, which is what makes a router-side cache worth its memory: a
// hit saves the whole scatter round trip. The fingerprint is its float
// bits, which the map hashes and compares: a hit takes a bit-equal
// fingerprint, where a hash standing in for it would let one client
// plant provenance for another's query under a constructed collision.
type cacheKey struct {
	label, k int
	bits     string
}

// newCacheKey keys query q. Bits, not values, are the right notion of
// equal here: clients replay byte-identical JSON for repeated checks,
// and bits keep -0 vs +0 and NaN payloads from aliasing distinct
// requests.
func newCacheKey(q fingerprint.QueryRequest) cacheKey {
	return cacheKey{label: q.Label, k: q.K, bits: string(f32le.Append(nil, q.Fingerprint))}
}

// cacheEntry is one cached response plus the shard generation it was
// computed under; a bumped generation turns the entry stale in place.
type cacheEntry struct {
	key   cacheKey
	resp  *fingerprint.QueryResponse
	shard int
	gen   uint64
}

// responseCache is the router's bounded LRU over single-query
// responses. Correctness under writes comes from per-shard generation
// counters rather than scanning for affected keys: an ingest routed to
// shard sid bumps gens[sid], and every entry computed under an older
// generation misses (and is evicted) on its next lookup. Lookups
// capture the generation BEFORE the scatter and store it with the
// entry, so a write that lands mid-flight still invalidates the
// response cached after it.
type responseCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
	gens  []atomic.Uint64

	hits   atomic.Uint64
	misses atomic.Uint64
}

func newResponseCache(capacity, nshards int) *responseCache {
	return &responseCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element, capacity),
		gens:  make([]atomic.Uint64, nshards),
	}
}

// gen reads shard sid's current generation; callers snapshot it before
// scattering and pass it back to put.
func (c *responseCache) gen(sid int) uint64 { return c.gens[sid].Load() }

// bump invalidates every cached response owned by shard sid.
func (c *responseCache) bump(sid int) { c.gens[sid].Add(1) }

// get returns the cached response for key if present and still current
// under its shard's generation. Stale entries count as misses and are
// evicted on the spot.
func (c *responseCache) get(key cacheKey) (*fingerprint.QueryResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != c.gens[e.shard].Load() {
		c.ll.Remove(el)
		delete(c.items, key)
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return e.resp, true
}

// put stores a response computed for key against shard sid under the
// generation snapshotted before the scatter, evicting the least
// recently used entry past capacity.
func (c *responseCache) put(key cacheKey, sid int, gen uint64, resp *fingerprint.QueryResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.resp, e.shard, e.gen = resp, sid, gen
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, resp: resp, shard: sid, gen: gen})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// len reports the live entry count (stale entries included until their
// next lookup evicts them).
func (c *responseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
