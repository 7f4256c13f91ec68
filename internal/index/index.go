// Package index provides the nearest-neighbour index backends behind
// CalTrain's accountability query service (§IV-C). The linkage database
// (internal/fingerprint.DB) answers queries with an exact per-label linear
// scan; at production scale — millions of fingerprints, heavy query
// traffic — that path needs a real index.
//
// Three backends implement fingerprint.Searcher:
//
//   - Flat: exact. Contiguous per-label vector storage, chunked parallel
//     scan, squared-distance comparisons with a bounded top-k max-heap and
//     one final sqrt per returned match. Same results as DB.Query, much
//     less work per query.
//   - IVF: approximate. A per-label k-means coarse quantizer partitions
//     each class into nlist inverted lists; queries scan only the nprobe
//     closest lists. Recall is tunable via nprobe and measurable with
//     Recall.
//   - IVFPQ: approximate and compressed. The IVF coarse quantizer, but
//     each list stores M-byte product-quantization codes of the
//     residuals instead of float vectors. A query scores the codes
//     through lookup tables (kernel.ADCScan), keeps a shortlist, and
//     re-scores that shortlist exactly against the rows the database
//     holds, so the distances it returns are exact.
//
// Flat and IVF keep each label's vectors in a bucket of two row-major
// segments. base holds the rows the index was built over and is never
// written again: when the database came from fingerprint.LoadDB it is
// the database's own class block (DB.ClassBlock), aliased, so a loaded
// fingerprint is resident once, not once per layer; for a database
// built by Add, and for Load, it is a private copy. tail is the
// index-owned segment Append grows, so appends never reallocate or
// duplicate base. Positions run through base then tail, in database
// order. IVFPQ keeps no copy of any float vector: its trainer reads the
// same buckets and drops them, and its searches reach a row through the
// database the index was trained over (or, for an appended entry, through
// the linkage Append was handed).
//
// All three serialize with Save/Load so a built index persists and
// reloads alongside LinkageDB.Save.
package index

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
)

// Searcher is re-exported for convenience; the canonical definition lives
// in internal/fingerprint so the HTTP service can accept any backend
// without an import cycle.
type Searcher = fingerprint.Searcher

// Appender is the optional write extension of a Searcher backend: it
// absorbs one new linkage without a rebuild, making the entry visible to
// subsequent searches. dbIndex is the entry's position in the backing
// linkage database, so Match.Index values stay consistent between the
// index and DB.Query. Flat grows its per-label bucket in place (still
// exact); IVF assigns the vector to its label's nearest centroid (exact
// within the probed lists, but the coarse quantizer is not retrained —
// see Drifter); IVFPQ encodes it the same way and keeps l itself, F
// aliased rather than copied, for the exact re-rank — so hand Append
// the database's stored entry, whose fingerprint is immutable, not a
// buffer that will be reused. Implementations serialize Append against
// Search internally.
type Appender interface {
	Searcher
	Append(dbIndex int, l fingerprint.Linkage) error
}

// Drifter is implemented by appendable backends whose search quality
// decays as appends accumulate. Drift is the fraction of entries
// appended since the backend was (re)trained, in [0, 1]; the ingest
// path retrains and hot-swaps the backend once drift crosses its
// configured threshold. Flat never drifts (it stays exact) and does not
// implement the interface.
type Drifter interface {
	Drift() float64
}

// rows is a row-major float32 matrix stored in two segments: rows
// [0, nb) in base, the rest in tail. The split exists so a bucket can
// alias an immutable block it does not own (base) and still grow (tail).
type rows struct {
	dim, nb    int
	base, tail []float32
}

// at returns row p.
func (m *rows) at(p int) []float32 {
	if p < m.nb {
		return m.base[p*m.dim : (p+1)*m.dim]
	}
	p -= m.nb
	return m.tail[p*m.dim : (p+1)*m.dim]
}

// span returns the stored rows [r, r+n): the longest contiguous run that
// starts at r, stays in one segment and ends by hi.
func (m *rows) span(r, hi int) (run []float32, n int) {
	if r < m.nb {
		hi = min(hi, m.nb)
		return m.base[r*m.dim : hi*m.dim], hi - r
	}
	return m.tail[(r-m.nb)*m.dim : (hi-m.nb)*m.dim], hi - r
}

// gather computes out[i] = SqDist(q, row pos[i]) for at most scanBlock
// positions, one kernel call per run of positions in the same segment
// (an inverted list is ascending, so that is at most two calls).
func (m *rows) gather(q []float32, pos []int32, out []float64) {
	if len(m.tail) == 0 {
		kernel.DistanceGather(q, m.base, m.dim, pos, out)
		return
	}
	var rel [scanBlock]int32 // tail-relative positions of the current run
	for i := 0; i < len(pos); {
		j := i
		if int(pos[i]) < m.nb {
			for j < len(pos) && int(pos[j]) < m.nb {
				j++
			}
			kernel.DistanceGather(q, m.base, m.dim, pos[i:j], out[i:j])
		} else {
			for ; j < len(pos) && int(pos[j]) >= m.nb; j++ {
				rel[j-i] = pos[j] - int32(m.nb)
			}
			kernel.DistanceGather(q, m.tail, m.dim, rel[:j-i], out[i:j])
		}
		i = j
	}
}

// bytes is the float storage both segments address.
func (m *rows) bytes() int64 { return 4 * int64(len(m.base)+len(m.tail)) }

// bucket is one class label's slice of the index: vectors stored
// contiguously for cache-friendly scanning (see rows and the package
// comment for the base/tail split), provenance kept parallel.
type bucket struct {
	n    int
	vecs rows
	idx  []int32 // database indices
	src  []string
	hash [][32]byte
}

// appendEntry grows the bucket by one linkage and returns its position.
// Callers hold the owning index's write lock.
func (b *bucket) appendEntry(dbIdx int32, l fingerprint.Linkage) int32 {
	pos := int32(b.n)
	b.vecs.tail = append(b.vecs.tail, l.F...)
	b.idx = append(b.idx, dbIdx)
	b.src = append(b.src, l.S)
	b.hash = append(b.hash, l.H)
	b.n++
	return pos
}

// buildBucket snapshots label y of the database. The rows covered by
// the database's class block are aliased as base; rows the block does
// not cover (entries stored by Add) are copied — into the tail behind an
// aliased base, or as a private base when the label has no block.
func buildBucket(db *fingerprint.DB, y int) *bucket {
	dim := db.Dim()
	idxs := db.ClassIndex(y)
	block := db.ClassBlock(y)
	nb := len(block) / dim
	own := make([]float32, (len(idxs)-nb)*dim)
	vecs := rows{dim: dim, nb: nb, base: block, tail: own}
	if nb == 0 {
		vecs = rows{dim: dim, nb: len(idxs), base: own}
	}
	b := &bucket{
		n:    len(idxs),
		vecs: vecs,
		idx:  make([]int32, len(idxs)),
		src:  make([]string, len(idxs)),
		hash: make([][32]byte, len(idxs)),
	}
	for i, dbIdx := range idxs {
		e := db.Entry(dbIdx)
		if i >= nb {
			copy(own[(i-nb)*dim:], e.F)
		}
		b.idx[i] = int32(dbIdx)
		b.src[i] = e.S
		b.hash[i] = e.H
	}
	return b
}

// cand is one scan candidate: squared distance plus position within the
// bucket. The sqrt is deferred until the final top-k is known.
type cand struct {
	d2  float64
	pos int32
}

// better reports whether a ranks strictly before b: smaller squared
// distance, ties broken by database index (bucket positions are in
// insertion order, so position order is index order).
func (b *bucket) better(a, c cand) bool {
	if a.d2 != c.d2 {
		return a.d2 < c.d2
	}
	return a.pos < c.pos
}

// topK is a bounded max-heap of the k best candidates seen so far;
// h[0] is the worst kept candidate, so one comparison rejects most of the
// scan without any heap movement.
type topK struct {
	b *bucket
	k int
	h []cand
}

func newTopK(b *bucket, k int) *topK {
	return &topK{b: b, k: k, h: make([]cand, 0, k)}
}

// worse is the heap ordering: the root holds the candidate that ranks
// last.
func (t *topK) worse(a, c cand) bool { return t.b.better(c, a) }

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
	if t.b.better(c, t.h[0]) {
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

// merge folds another heap over the same bucket into t.
func (t *topK) merge(o *topK) {
	for _, c := range o.h {
		t.consider(c)
	}
}

// matches materializes the heap as sorted fingerprint.Match results,
// taking the one sqrt per returned row.
func (t *topK) matches(label int) []fingerprint.Match {
	cands := append([]cand(nil), t.h...)
	sort.Slice(cands, func(a, b int) bool { return t.b.better(cands[a], cands[b]) })
	out := make([]fingerprint.Match, len(cands))
	for i, c := range cands {
		out[i] = fingerprint.Match{
			Index:    int(t.b.idx[c.pos]),
			Source:   t.b.src[c.pos],
			Label:    label,
			Hash:     t.b.hash[c.pos],
			Distance: math.Sqrt(c.d2),
		}
	}
	return out
}

// scanBlock is how many candidate distances one kernel call computes
// before the heap consumes them: big enough to amortize dispatch, small
// enough that the scratch stays on the stack.
const scanBlock = 256

// scanRange feeds bucket positions [lo,hi) through the heap, computing
// distances a block at a time via the vectorized kernel.
func scanRange(t *topK, q []float32, dim int, lo, hi int32) {
	vecs := &t.b.vecs
	var buf [scanBlock]float64
	for r := int(lo); r < int(hi); {
		run, n := vecs.span(r, min(r+scanBlock, int(hi)))
		kernel.DistanceRows(q, run, dim, buf[:n])
		for i := 0; i < n; i++ {
			// Equal distance can still win on the index tie-break, so <=.
			if d2 := buf[i]; d2 <= t.threshold() {
				t.consider(cand{d2: d2, pos: int32(r + i)})
			}
		}
		r += n
	}
}

// parallelScanThreshold is the work-item count above which a scan fans
// out across GOMAXPROCS workers.
const parallelScanThreshold = 8192

// parallelChunks splits [0, n) into one contiguous chunk per worker and
// runs fn on each concurrently; below parallelScanThreshold it runs
// fn(0, n) inline.
func parallelChunks(n int, fn func(lo, hi int)) {
	if n < parallelScanThreshold {
		fn(0, n)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parallelTopK runs scan over chunks of [0, n), each worker with a
// private heap over b, and merges them into one result heap.
func parallelTopK(b *bucket, k, n int, scan func(t *topK, lo, hi int)) *topK {
	final := newTopK(b, k)
	if n < parallelScanThreshold {
		scan(final, 0, n)
		return final
	}
	var mu sync.Mutex
	parallelChunks(n, func(lo, hi int) {
		t := newTopK(b, k)
		scan(t, lo, hi)
		mu.Lock()
		final.merge(t)
		mu.Unlock()
	})
	return final
}

// scanBucket runs the (possibly parallel) top-k scan of one bucket over
// the positions [0, n).
func scanBucket(b *bucket, q []float32, dim, k int) *topK {
	return parallelTopK(b, k, b.n, func(t *topK, lo, hi int) {
		scanRange(t, q, dim, int32(lo), int32(hi))
	})
}

// batchSweep feeds bucket rows [lo,hi) through one heap per query,
// visiting each block of vectors with every query while it is
// cache-resident — the whole group costs one pass of memory traffic.
func batchSweep(heaps []*topK, qs []float32, dim int, b *bucket, lo, hi int) {
	nq := len(heaps)
	buf := make([]float64, nq*scanBlock)
	for r0 := lo; r0 < hi; {
		run, rows := b.vecs.span(r0, min(r0+scanBlock, hi))
		kernel.DistanceBatch(qs, run, dim, buf[:nq*rows])
		for qi, t := range heaps {
			row := buf[qi*rows : (qi+1)*rows]
			for i, d2 := range row {
				if d2 <= t.threshold() {
					t.consider(cand{d2: d2, pos: int32(r0 + i)})
				}
			}
		}
		r0 += rows
	}
}

// batchScanBucket runs one blocked sweep of b for a group of queries
// sharing a label (qs is len(ks) concatenated dim-length queries),
// returning one result heap per query. Results are identical to
// per-query scanBucket calls: same kernel distances, same (d2, pos)
// tie-break, only the traversal is shared. Large buckets fan out across
// cores with per-worker heap sets merged at the end.
func batchScanBucket(b *bucket, qs []float32, dim int, ks []int) []*topK {
	finals := make([]*topK, len(ks))
	for i, k := range ks {
		finals[i] = newTopK(b, k)
	}
	if b.n < parallelScanThreshold {
		batchSweep(finals, qs, dim, b, 0, b.n)
		return finals
	}
	var mu sync.Mutex
	parallelChunks(b.n, func(lo, hi int) {
		locals := make([]*topK, len(ks))
		for i, k := range ks {
			locals[i] = newTopK(b, k)
		}
		batchSweep(locals, qs, dim, b, lo, hi)
		mu.Lock()
		for i := range finals {
			finals[i].merge(locals[i])
		}
		mu.Unlock()
	})
	return finals
}

// nearestLists appends to out the n inverted lists whose squared centroid
// distances d2s are smallest, nearest first, ties to the lower list — or
// every list, in list order, when n covers them all (the result set of a
// search does not depend on the order its lists are scanned in). It is
// the coarse selection of both IVF backends: one pass over d2s with an
// insertion into at most n kept lists, instead of sorting all of them.
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

// groupByLabel validates each query and groups the valid ones by label,
// recording per-query validation errors in errs. Shared by both
// backends' SearchBatch implementations.
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
