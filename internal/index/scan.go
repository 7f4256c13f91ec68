package index

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
)

// The search pipeline. Every backend's Search and SearchBatch is one
// call into this file: validate, group the queries by label, scan each
// label's class for its group, materialize the matches. Search is the
// group of one, which needs no grouping. What a backend contributes is
// its class type — how one label's entries are arranged in lists and
// how a block of them is scored — and nothing about heaps, fan-out,
// scratch or result order, which are decided here once.

// backend is an index as the pipeline sees it.
type backend interface {
	Dim() int
	// database is what matches resolve through.
	database() *fingerprint.DB
	// class returns the label's class, nil when the index holds no such
	// label, and how many of the class's lists a query scans.
	class(label int) (c class, nprobe int)
}

// class is one label's share of an index: its entries arranged in
// lists, of which a query scans some. Candidate i of a list is the
// entry at position i of it.
type class interface {
	// quantizer returns the coarse centroids that choose a query's
	// lists, nlist rows of dim floats. nlist 0 means there is no choice
	// to make: the class is one list that every query scans, so a group
	// of queries shares one sweep of it.
	quantizer() (nlist int, centroids []float32)
	// listLen is the number of candidates in list li.
	listLen(li int32) int
	// scanList scores candidates [lo, hi) of list li against the
	// len(heaps) queries concatenated in qs and offers each query's
	// scores to its heap, at most scanBlock candidates per kernel call,
	// through w.buf. A class with a quantizer is handed one query at a
	// time.
	scanList(w *scratch, qs []float32, heaps []topK, li int32, lo, hi int)
	// shortlist is how many candidates the scan must keep for rescore to
	// choose the best k from; k itself when the scan's scores are final.
	shortlist(k int) int
	// rescore replaces the scan's score of every kept candidate by its
	// final squared distance to q.
	rescore(q []float32, h []cand)
}

// exact is the shortlist and rescore of a class whose scan already
// computes exact distances.
type exact struct{}

func (exact) shortlist(k int) int       { return k }
func (exact) rescore([]float32, []cand) {}

// coarseStage is what IVF and IVFPQ share above their classes: the
// view, the appended count Drift reads, and nprobe, the one search knob.
// Their classes' coarse centroids are ranked by the pipeline
// (scratch.scan), identically for both.
type coarseStage struct {
	view
	appended int
	nprobe   atomic.Int32
}

// Nprobe returns the current probe width.
func (x *coarseStage) Nprobe() int { return int(x.nprobe.Load()) }

// SetNprobe adjusts the recall-vs-latency knob. Safe to call while the
// index is serving.
func (x *coarseStage) SetNprobe(n int) {
	x.nprobe.Store(int32(max(1, n)))
}

// Drift implements Drifter: the fraction of the index appended since
// training. A freshly trained (or loaded) index reports 0.
func (x *coarseStage) Drift() float64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if x.total == 0 {
		return 0
	}
	return float64(x.appended) / float64(x.total)
}

// cand is one scan candidate: squared distance (a class with a shortlist
// stores its estimate here until rescore) and the database index that
// breaks ties and resolves to its linkage. The sqrt is deferred until
// the final top-k is known.
type cand struct {
	d2  float64
	idx int32
}

// compareCands orders candidates by squared distance, ties by database
// index — DB.Query's order.
func compareCands(a, b cand) int {
	if a.d2 != b.d2 {
		if a.d2 < b.d2 {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// topK is a bounded max-heap of the k best candidates seen so far;
// h[0] is the worst kept candidate, so one comparison rejects most of
// the scan without any heap movement. It lives in a scratch and is
// reset, not reallocated, per query.
type topK struct {
	k int
	h []cand
}

func (t *topK) reset(k int) { t.k, t.h = k, t.h[:0] }

// worse is the heap ordering: the root holds the candidate that ranks
// last.
func (t *topK) worse(a, b cand) bool { return compareCands(b, a) < 0 }

// threshold returns the current worst kept squared distance, or +Inf
// while the heap is not yet full.
func (t *topK) threshold() float64 {
	if len(t.h) < t.k {
		return math.Inf(1)
	}
	return t.h[0].d2
}

func (t *topK) consider(c cand) {
	if len(t.h) < t.k {
		t.h = append(t.h, c)
		t.siftUp(len(t.h) - 1)
		return
	}
	if t.worse(t.h[0], c) {
		t.h[0] = c
		t.siftDown(0)
	}
}

func (t *topK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(t.h[i], t.h[p]) {
			return
		}
		t.h[i], t.h[p] = t.h[p], t.h[i]
		i = p
	}
}

func (t *topK) siftDown(i int) {
	n := len(t.h)
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && t.worse(t.h[l], t.h[w]) {
			w = l
		}
		if r < n && t.worse(t.h[r], t.h[w]) {
			w = r
		}
		if w == i {
			return
		}
		t.h[i], t.h[w] = t.h[w], t.h[i]
		i = w
	}
}

// merge folds another heap over the same class into t.
func (t *topK) merge(o *topK) {
	for _, c := range o.h {
		t.consider(c)
	}
}

// offer feeds one block of kernel output through the heap: d2s[i] is
// the score of the entry whose database index is idx[at[i]] — idx[off+i]
// when at is nil.
func (t *topK) offer(d2s []float64, off int, at, idx []int32) {
	for i, d2 := range d2s {
		// Equal distance can still win on the index tie-break, so <=.
		if d2 <= t.threshold() {
			pos := off + i
			if at != nil {
				pos = int(at[i])
			}
			t.consider(cand{d2: d2, idx: idx[pos]})
		}
	}
}

// scanBlock is how many candidate distances one kernel call computes
// before the heap consumes them: big enough to amortize dispatch, small
// enough that a query's block stays in L1.
const scanBlock = 256

// parallelScanThreshold is the work-item count above which a scan fans
// out across GOMAXPROCS workers.
const parallelScanThreshold = 8192

// parallelChunks splits [0, n) into one contiguous chunk per worker and
// runs fn on each concurrently, the first on the calling goroutine;
// below parallelScanThreshold it runs fn(0, n) inline.
func parallelChunks(n int, fn func(lo, hi int)) {
	if n < parallelScanThreshold {
		fn(0, n)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	fn(0, chunk)
	wg.Wait()
}

// scratch is the working set of one label's group of queries: the
// queries themselves, one heap per query, the coarse stage's centroid
// distances and chosen lists, and the kernel output block, plus what
// IVFPQ's table build needs (the query residual, the ADC table — 16 KiB
// at M 16 — and a row of table cells). One is taken per Search or
// SearchBatch, and one per worker of a fanned-out sweep, and recycled
// through scratchPool, so a search allocates only the matches it
// returns.
type scratch struct {
	qs     []float32 // the group's queries, concatenated
	ks     []int     // matches each query asked for, clamped to its candidates
	heaps  []topK
	cd2    []float64 // nq×nlist squared centroid distances
	probed []int32   // the lists each query scans, nearest first
	buf    []float64 // nq×scanBlock kernel outputs
	res    []float32
	tab    []float32
	d2s    [pqKs]float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns s with length n and unspecified contents, reallocating
// only when its capacity falls short.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// search is Search for every backend: the pipeline run on a group of
// one, which builds no map. mu is the backend's lock.
func search(x backend, mu *sync.RWMutex, f fingerprint.Fingerprint, label, k int) ([]fingerprint.Match, error) {
	dim := x.Dim()
	if err := checkQuery(dim, f, k); err != nil {
		return nil, err
	}
	mu.RLock()
	defer mu.RUnlock()
	c, nprobe := x.class(label)
	if c == nil {
		return nil, nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.qs, s.ks = append(s.qs[:0], f...), append(s.ks[:0], k)
	s.scan(c, dim, nprobe)
	return s.matches(x.database(), c, 0, dim, label), nil
}

// searchBatch is SearchBatch for every backend: queries sharing a label
// form one group, scanned together (see scratch.scan). Results are
// identical to per-query Search calls; each query fails or succeeds
// independently.
func searchBatch(x backend, mu *sync.RWMutex, fs []fingerprint.Fingerprint, labels, ks []int) ([][]fingerprint.Match, []error) {
	dim := x.Dim()
	results := make([][]fingerprint.Match, len(fs))
	errs := make([]error, len(fs))
	mu.RLock()
	defer mu.RUnlock()
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	for label, qidx := range groupByLabel(dim, fs, labels, ks, errs) {
		c, nprobe := x.class(label)
		if c == nil {
			continue // absent label: nil matches, nil error, like Search
		}
		s.qs, s.ks = s.qs[:0], s.ks[:0]
		for _, i := range qidx {
			s.qs, s.ks = append(s.qs, fs[i]...), append(s.ks, ks[i])
		}
		s.scan(c, dim, nprobe)
		for j, i := range qidx {
			results[i] = s.matches(x.database(), c, j, dim, label)
		}
	}
	return results, errs
}

// groupByLabel validates each query and groups the valid ones by label,
// recording per-query validation errors in errs.
func groupByLabel(dim int, fs []fingerprint.Fingerprint, labels []int, ks []int, errs []error) map[int][]int {
	groups := make(map[int][]int)
	for i := range fs {
		if err := checkQuery(dim, fs[i], ks[i]); err != nil {
			errs[i] = err
			continue
		}
		groups[labels[i]] = append(groups[labels[i]], i)
	}
	return groups
}

func checkQuery(dim int, f fingerprint.Fingerprint, k int) error {
	if len(f) != dim {
		return fmt.Errorf("%w: query has %d dims, index %d", fingerprint.ErrDimMismatch, len(f), dim)
	}
	if k <= 0 {
		return fmt.Errorf("index: k must be positive, got %d", k)
	}
	return nil
}

// scan fills one heap per query of the group in s.qs and s.ks from
// class c. A class that is one list gets one blocked sweep for the whole
// group: each cache-resident block of vectors is visited by every query
// before the next loads, so B same-label queries cost one pass of memory
// traffic instead of B. A class with a quantizer gets the coarse stage
// batched the same way — every query ranks the centroid table in one
// blocked kernel sweep — and then one sweep per query, over the nprobe
// lists nearest it.
func (s *scratch) scan(c class, dim, nprobe int) {
	nq := len(s.ks)
	s.heaps = resize(s.heaps, nq)
	nlist, centroids := c.quantizer()
	if nlist == 0 {
		s.probed = append(s.probed[:0], 0)
		s.sweep(c, s.qs, s.ks, s.heaps, s.probed)
		return
	}
	np := min(nprobe, nlist)
	s.cd2, s.probed = resize(s.cd2, nq*nlist), resize(s.probed, nq*np)
	kernel.DistanceBatch(s.qs, centroids, dim, s.cd2)
	for j := range s.heaps {
		lists := nearestLists(s.cd2[j*nlist:(j+1)*nlist], np, s.probed[j*np:j*np])
		s.sweep(c, s.qs[j*dim:(j+1)*dim], s.ks[j:j+1], s.heaps[j:j+1], lists)
	}
}

// nearestLists appends to out, which must be empty, the n inverted lists
// whose squared centroid distances d2s are smallest, nearest first, ties
// to the lower list — or every list, in list order, when n covers them
// all (the result set of a search does not depend on the order its lists
// are scanned in). It is one pass over d2s with an insertion into at
// most n kept lists, instead of sorting all of them.
func nearestLists(d2s []float64, n int, out []int32) []int32 {
	if n >= len(d2s) {
		for ci := range d2s {
			out = append(out, int32(ci))
		}
		return out
	}
	for ci, d2 := range d2s {
		if len(out) == n {
			if !(d2 < d2s[out[n-1]]) { // not >=: a NaN must not displace a kept list
				continue
			}
		} else {
			out = append(out, 0)
		}
		j := len(out) - 1
		for ; j > 0 && d2 < d2s[out[j-1]]; j-- {
			out[j] = out[j-1]
		}
		out[j] = int32(ci)
	}
	return out
}

// sweep runs the queries in qs over every candidate of the given lists
// of c, leaving each query's shortlist in its heap. It is where k meets
// the data: each k is clamped to the candidates there are, so a heap
// never holds, or reserves room for, more than the class can fill. A
// sweep of parallelScanThreshold candidates or more fans out: each worker
// scans a contiguous share of them into heaps of its own, merged under
// a lock. The heap order is total (database indices are distinct), so
// the merged result does not depend on how the candidates were split.
func (s *scratch) sweep(c class, qs []float32, ks []int, heaps []topK, lists []int32) {
	n := 0
	for _, li := range lists {
		n += c.listLen(li)
	}
	for j := range heaps {
		ks[j] = min(ks[j], n)
		heaps[j].reset(min(c.shortlist(ks[j]), n))
	}
	if n < parallelScanThreshold {
		s.scanRange(c, qs, heaps, lists, 0, n)
		return
	}
	var mu sync.Mutex
	parallelChunks(n, func(lo, hi int) {
		w := scratchPool.Get().(*scratch)
		defer scratchPool.Put(w)
		w.heaps = resize(w.heaps, len(heaps))
		for j := range heaps {
			w.heaps[j].reset(heaps[j].k)
		}
		w.scanRange(c, qs, w.heaps, lists, lo, hi)
		mu.Lock()
		defer mu.Unlock()
		for j := range heaps {
			heaps[j].merge(&w.heaps[j])
		}
	})
}

// scanRange scans candidates [lo, hi) of the concatenation of lists,
// list by list, out of w's buffers.
func (w *scratch) scanRange(c class, qs []float32, heaps []topK, lists []int32, lo, hi int) {
	w.buf = resize(w.buf, len(heaps)*scanBlock)
	for _, li := range lists {
		n := c.listLen(li)
		if from, to := max(lo, 0), min(hi, n); from < to {
			c.scanList(w, qs, heaps, li, from, to)
		}
		lo, hi = lo-n, hi-n
	}
}

// matches consumes query j's heap: the class rescores the shortlist,
// the best k by (squared distance, database index) are selected and
// sorted in place, and each is materialized with the one sqrt and the
// one resolution of its provenance through db a returned match costs.
func (s *scratch) matches(db *fingerprint.DB, c class, j, dim, label int) []fingerprint.Match {
	t, k := &s.heaps[j], s.ks[j]
	c.rescore(s.qs[j*dim:(j+1)*dim], t.h)
	if len(t.h) > k {
		// best's heap grows over the front of the array it is fed from, and
		// never writes a slot the loop has yet to read.
		best := topK{k: k, h: t.h[:0]}
		for _, cd := range t.h {
			best.consider(cd)
		}
		t.h = best.h
	}
	slices.SortFunc(t.h, compareCands)
	out := make([]fingerprint.Match, len(t.h))
	for i, cd := range t.h {
		out[i] = fingerprint.Match{Index: int(cd.idx), Label: label, Distance: math.Sqrt(cd.d2)}
	}
	db.Provenance(out)
	return out
}
