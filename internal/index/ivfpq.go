package index

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
)

// IVFPQOptions tunes IVFPQ training and search. The embedded IVFOptions
// govern the coarse quantizer exactly as they do for IVF; M adds the
// product-quantization knob.
type IVFPQOptions struct {
	IVFOptions
	// M is the number of subquantizers: each vector is stored as M uint8
	// centroid indices (M bytes instead of 4·dim), so M sets the
	// memory-vs-accuracy trade. It must divide the fingerprint
	// dimensionality; 0 picks the largest of {16, 8, 4, 2, 1} that does.
	M int
}

func (o IVFPQOptions) withDefaults(dim int) IVFPQOptions {
	if o.M <= 0 {
		for _, m := range []int{16, 8, 4, 2, 1} {
			if dim%m == 0 {
				o.M = m
				break
			}
		}
	}
	return o
}

// pqList is one inverted list of an IVFPQ class: per-entry codes and
// database indices. An entry's float row and provenance stay where the
// database keeps them (IVFPQ.entry resolves them by index); the list
// carries only the linkages the database cannot resolve.
type pqList struct {
	codes []byte // n×m, row-major
	idx   []int32
	// own holds the linkages of the list's LAST len(own) entries: every
	// entry of a list read by Load, without a fingerprint, until AttachDB
	// hands them back to the database; and every appended entry, its F
	// aliasing the row Append was given.
	own []fingerprint.Linkage
}

func (l *pqList) n() int { return len(l.idx) }

// ivfpqClass is one label's coarse quantizer, PQ codebook, and
// product-quantized inverted lists.
type ivfpqClass struct {
	nlist     int
	centroids []float32 // nlist×dim
	book      *pqCodebook
	lists     []*pqList
	n         int
}

// IVFPQ is the memory-compressed approximate backend: the IVF coarse
// quantizer partitions each class into inverted lists, but list entries
// store M-byte product-quantization codes of their residual (vector
// minus coarse centroid) instead of the 4·dim-byte vector.
//
// A search has two stages. The ADC stage ranks centroids with the float
// kernel, then for each probed list builds a lookup table from the
// query's residual and scores the list's codes with kernel.ADCScan — M
// table lookups per candidate, no float vector touched — keeping the
// shortlist(k) best. The exact stage re-scores that shortlist with the
// float kernel against the rows the database holds and returns the best
// k by (exact distance, database index). Match.Distance is therefore
// the exact L2 distance, bit-identical to DB.Query's for the same entry;
// what stays approximate is which candidates reach the shortlist, which
// nprobe and M govern and TestIVFPQRecall measures.
//
// The index copies neither float vectors nor the provenance of the
// entries it was trained over: it holds that database and resolves an
// entry by its index. An index read by Load has no database, carries
// its provenance itself and answers from the ADC stage alone —
// approximate order, approximate Distance — until AttachDB gives it one.
//
// IVFPQ implements Appender: a new vector is encoded against its
// label's nearest centroid without retraining, and Drift reports the
// appended fraction so the ingest path can retrain and hot-swap, same
// as IVF.
type IVFPQ struct {
	mu       sync.RWMutex
	dim      int
	m        int
	total    int
	appended int
	nprobe   atomic.Int32
	labels   map[int]*ivfpqClass
	// db resolves the entries no list carries (see pqList.own); nil for a
	// loaded index until AttachDB. It may be a Snapshot: entries appended
	// later arrive through Append with their own row.
	db *fingerprint.DB
	// appendRes is Append's residual scratch, guarded by the write lock
	// so an append allocates only what the lists themselves grow by.
	appendRes []float32
}

// shortlist is k′, the number of ADC candidates the exact stage
// re-scores to return k. It is a fixed function of k, not a knob,
// chosen from a sweep at k = 9: on the bench's linkage-group data
// recall@9 reads 0.893 at k′ = k and 0.9994 at 2k, 4k and 8k; once
// near-duplicate appends outnumber the entries the codebook was trained
// on (TestIVFPQRecallUnderDuplicateAppends) it reads 0.720, 0.976, 1.000
// and 1.000, so 4k is the first width with margin to spare, for ~4 µs of
// a ~26 µs search (8k costs ~8). The floor is for small k, where 4k is
// too few to hold a linkage group: recall@1 reads 0.81 at k′ = 4 and
// 1.000 at 32. An index without a database has no exact stage and
// keeps k.
func (x *IVFPQ) shortlist(k int) int {
	if x.db == nil {
		return k
	}
	return max(4*k, 32)
}

// TrainIVFPQ builds an IVFPQ index from a snapshot of the linkage
// database: per label, the IVF coarse training pass (shared with
// TrainIVF), then per-subquantizer k-means over the residuals and one
// encoding pass. A label's float vectors are read where the database
// keeps them (or from a copy that lives only while that label trains)
// and never retained — only codes, centroids, codebooks, and db itself
// are.
func TrainIVFPQ(db *fingerprint.DB, opts IVFPQOptions) (*IVFPQ, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("index: cannot train IVFPQ on an empty database")
	}
	dim := db.Dim()
	o := opts.withDefaults(dim)
	if o.M < 1 || dim%o.M != 0 {
		return nil, fmt.Errorf("index: IVFPQ M=%d must divide the fingerprint dimensionality %d", o.M, dim)
	}
	x := &IVFPQ{dim: dim, m: o.M, db: db, labels: make(map[int]*ivfpqClass)}
	nprobe := 0
	for _, y := range db.Labels() {
		b := buildBucket(db, y)
		co := o.IVFOptions.withDefaults(b.n)
		x.labels[y] = trainPQClass(b, o.M, co)
		x.total += b.n
		nprobe = max(nprobe, co.Nprobe)
	}
	x.nprobe.Store(int32(nprobe))
	return x, nil
}

// trainPQClass runs the full per-label pipeline: coarse k-means (the
// IVF trainer), PQ codebook training on the residuals of a sample, and
// the encoding pass that turns the bucket's float vectors into per-list
// code arrays. Residuals (vector minus its coarse centroid) are computed
// where they are consumed — for the training sample, and one row at a
// time while encoding — never as a whole n×dim matrix.
func trainPQClass(b *bucket, m int, co IVFOptions) *ivfpqClass {
	dim := b.vecs.dim
	ivfc := trainClass(b, co)
	c := &ivfpqClass{nlist: ivfc.nlist, centroids: ivfc.centroids, n: b.n}

	assign := make([]int32, b.n) // coarse list by bucket position
	for ci, list := range ivfc.lists {
		for _, p := range list {
			assign[p] = int32(ci)
		}
	}
	residual := func(p int, r []float32) {
		v := b.vecs.at(p)
		cen := c.centroids[int(assign[p])*dim : (int(assign[p])+1)*dim]
		for j := range r {
			r[j] = v[j] - cen[j]
		}
	}

	// PQ training draws from a stream disjoint from the coarse
	// quantizer's so the two stages can't correlate; the sample floor
	// keeps a small coarse SampleCap from starving 256-means.
	rng := rand.New(rand.NewPCG(co.Seed^0x9e3779b97f4a7c15, uint64(b.n)<<16|uint64(m)))
	c.book = trainPQ(residual, b.n, dim, m, co.Iters, max(co.SampleCap, 8*pqKs), rng)

	// Encode every point, then pack codes into list order.
	codes := make([]byte, b.n*m)
	parallelChunks(b.n, func(lo, hi int) {
		r := make([]float32, dim)
		for p := lo; p < hi; p++ {
			residual(p, r)
			c.book.encode(r, codes[p*m:(p+1)*m])
		}
	})
	c.lists = make([]*pqList, c.nlist)
	for ci, list := range ivfc.lists {
		l := &pqList{codes: make([]byte, len(list)*m), idx: make([]int32, len(list))}
		for i, p := range list {
			copy(l.codes[i*m:(i+1)*m], codes[int(p)*m:(int(p)+1)*m])
			l.idx[i] = b.idx[p]
		}
		c.lists[ci] = l
	}
	return c
}

// Dim returns the fingerprint dimensionality.
func (x *IVFPQ) Dim() int { return x.dim }

// M returns the number of subquantizers (code bytes per entry).
func (x *IVFPQ) M() int { return x.m }

// Len returns the number of indexed linkages.
func (x *IVFPQ) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.total
}

// Kind implements Searcher.
func (x *IVFPQ) Kind() string { return "ivfpq" }

// Nprobe returns the current probe width.
func (x *IVFPQ) Nprobe() int { return int(x.nprobe.Load()) }

// SetNprobe adjusts the recall-vs-latency knob. Safe to call while the
// index is serving.
func (x *IVFPQ) SetNprobe(n int) {
	x.nprobe.Store(int32(max(1, n)))
}

// VectorBytes reports the bytes of search geometry the index holds in
// memory: M code bytes and a 4-byte database index per entry, plus the
// coarse centroid tables and PQ codebooks. No float vector is copied,
// which is the point — at dim 64 and M 16 this is ~1/13 of
// Flat.VectorBytes for the same entries (the centroid/codebook share
// amortizes away as classes grow). The rows the exact stage reads are
// the database's, counted there; provenance metadata (source, hash) is
// excluded, as in Flat.VectorBytes.
func (x *IVFPQ) VectorBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var total int64
	for _, c := range x.labels {
		total += 4 * int64(len(c.centroids))
		total += 4 * int64(len(c.book.centroids))
		for _, l := range c.lists {
			total += int64(len(l.codes))
			total += 4 * int64(len(l.idx))
		}
	}
	return total
}

// Append implements Appender: the vector is encoded against its label's
// nearest centroid and its code joins that inverted list; neither the
// coarse quantizer nor the codebook retrains. A label the index has
// never seen starts as a degenerate one-list class whose centroid is
// the vector itself and whose codebook is all-zero (so the residual
// encodes exactly). The list keeps l, F aliased: see Appender.
func (x *IVFPQ) Append(dbIndex int, l fingerprint.Linkage) error {
	if len(l.F) != x.dim {
		return fmt.Errorf("%w: appended fingerprint has %d dims, index %d", fingerprint.ErrDimMismatch, len(l.F), x.dim)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	c := x.labels[l.Y]
	if c == nil {
		x.labels[l.Y] = &ivfpqClass{
			nlist:     1,
			centroids: append([]float32(nil), l.F...),
			book:      zeroCodebook(x.m, x.dim/x.m),
			lists: []*pqList{{
				codes: make([]byte, x.m),
				idx:   []int32{int32(dbIndex)},
				own:   []fingerprint.Linkage{l},
			}},
			n: 1,
		}
	} else {
		best := kernel.ArgminRows(l.F, c.centroids, x.dim, c.nlist)
		cen := c.centroids[best*x.dim : (best+1)*x.dim]
		if x.appendRes == nil {
			x.appendRes = make([]float32, x.dim)
		}
		for j := range x.appendRes {
			x.appendRes[j] = l.F[j] - cen[j]
		}
		lst := c.lists[best]
		n := len(lst.codes)
		lst.codes = slices.Grow(lst.codes, x.m)[:n+x.m]
		c.book.encode(x.appendRes, lst.codes[n:])
		lst.idx = append(lst.idx, int32(dbIndex))
		lst.own = append(lst.own, l)
		c.n++
	}
	x.total++
	x.appended++
	return nil
}

// Drift implements Drifter: the fraction of the index appended since
// training. A freshly trained (or loaded) index reports 0.
func (x *IVFPQ) Drift() float64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if x.total == 0 {
		return 0
	}
	return float64(x.appended) / float64(x.total)
}

// entry resolves position pos of list l to its linkage: through the
// database for the entries the index was trained (or attached) over,
// from the list itself for the ones it carries. Callers hold a lock.
func (x *IVFPQ) entry(l *pqList, pos int) fingerprint.Linkage {
	if r := l.n() - len(l.own); pos >= r {
		return l.own[pos-r]
	}
	return x.db.Entry(int(l.idx[pos]))
}

// loaded counts the entries the list still carries from Load: the
// fingerprint-less head of own.
func (l *pqList) loaded() int {
	n := 0
	for n < len(l.own) && l.own[n].F == nil {
		n++
	}
	return n
}

// AttachDB gives an index read by Load the database it indexes: every
// loaded entry must be db's entry of that index (same label, source and
// hash), after which the lists drop their carried provenance and
// searches run the exact stage against db's rows, as on a trained index.
// On a mismatch the index is left as it was. An index that already has
// a database keeps it.
func (x *IVFPQ) AttachDB(db *fingerprint.DB) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.db != nil {
		return nil
	}
	if db.Dim() != x.dim {
		return fmt.Errorf("%w: attached database has %d dims, index %d", fingerprint.ErrDimMismatch, db.Dim(), x.dim)
	}
	n := db.Len()
	for y, c := range x.labels {
		for _, l := range c.lists {
			r := l.n() - len(l.own)
			for i, o := range l.own[:l.loaded()] {
				idx := int(l.idx[r+i])
				if idx < 0 || idx >= n {
					return fmt.Errorf("index: attach: entry %d is outside the %d-entry database", idx, n)
				}
				if e := db.Entry(idx); e.Y != y || e.S != o.S || e.H != o.H {
					return fmt.Errorf("index: attach: entry %d (label %d, source %q) is not the database's", idx, y, o.S)
				}
			}
		}
	}
	for _, c := range x.labels {
		for _, l := range c.lists {
			l.own = append([]fingerprint.Linkage(nil), l.own[l.loaded():]...)
		}
	}
	x.db = db
	return nil
}

// Search returns approximately the k nearest same-label entries: the
// nprobe lists whose centroids are closest to f are scanned by ADC
// table lookups, and the shortlist that survives is re-ranked by exact
// distance (see IVFPQ), ties broken by database index.
func (x *IVFPQ) Search(f fingerprint.Fingerprint, label, k int) ([]fingerprint.Match, error) {
	if err := checkQuery(x.dim, f, k); err != nil {
		return nil, err
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	c, ok := x.labels[label]
	if !ok {
		return nil, nil
	}
	s := getPQScratch(x.dim, x.m)
	defer pqScratchPool.Put(s)
	s.cd2 = slices.Grow(s.cd2[:0], c.nlist)[:c.nlist]
	kernel.DistanceRows(f, c.centroids, x.dim, s.cd2)
	return x.scanProbed(c, f, label, k, s.cd2, s), nil
}

// SearchBatch implements fingerprint.BatchSearcher. As with IVF, the
// coarse stage is batched per label group (one blocked kernel sweep of
// the centroid table); each query then scans its own probed lists.
// Results are identical to per-query Search calls.
func (x *IVFPQ) SearchBatch(fs []fingerprint.Fingerprint, labels []int, ks []int) ([][]fingerprint.Match, []error) {
	results := make([][]fingerprint.Match, len(fs))
	errs := make([]error, len(fs))
	x.mu.RLock()
	defer x.mu.RUnlock()
	s := getPQScratch(x.dim, x.m)
	defer pqScratchPool.Put(s)
	for label, qidx := range groupByLabel(x.dim, fs, labels, ks, errs) {
		c, ok := x.labels[label]
		if !ok {
			continue // absent label: nil matches, nil error, like Search
		}
		qs := make([]float32, 0, len(qidx)*x.dim)
		for _, i := range qidx {
			qs = append(qs, fs[i]...)
		}
		d2s := make([]float64, len(qidx)*c.nlist)
		kernel.DistanceBatch(qs, c.centroids, x.dim, d2s)
		for j, i := range qidx {
			results[i] = x.scanProbed(c, fs[i], label, ks[i], d2s[j*c.nlist:(j+1)*c.nlist], s)
		}
	}
	return results, errs
}

// scanProbed selects the nprobe closest lists from the query's squared
// centroid distances, ADC-scans their codes into one shortlist and hands
// it to refine. Small candidate sets run serially on the caller's
// scratch; large ones fan the probed lists out across goroutines (each
// list's table build and scan are independent) and merge per-list
// shortlists, so both paths share the one exact stage. Callers hold the
// read lock.
func (x *IVFPQ) scanProbed(c *ivfpqClass, f fingerprint.Fingerprint, label, k int, d2s []float64, s *pqScratch) []fingerprint.Match {
	s.probed = nearestLists(d2s, int(x.nprobe.Load()), s.probed[:0])
	total := 0
	for _, ci := range s.probed {
		total += c.lists[ci].n()
	}
	k = min(k, total)
	kk := min(x.shortlist(k), total)
	t := &s.top
	t.reset(kk)
	if total < parallelScanThreshold {
		for _, ci := range s.probed {
			x.scanList(c, f, int(ci), t, s)
		}
		return x.refine(c, f, label, k, t)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ci := range s.probed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := getPQScratch(x.dim, x.m)
			defer pqScratchPool.Put(ws)
			ws.top.reset(kk)
			x.scanList(c, f, int(ci), &ws.top, ws)
			mu.Lock()
			t.merge(&ws.top)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return x.refine(c, f, label, k, t)
}

// refine is the exact stage, run once on the merged shortlist: with a
// database, every candidate's ADC estimate is replaced by the kernel
// distance to its float row; then the best k by (squared distance,
// database index) are materialized, taking the one sqrt per returned
// match. The shortlist is consumed.
func (x *IVFPQ) refine(c *ivfpqClass, f fingerprint.Fingerprint, label, k int, t *pqTopK) []fingerprint.Match {
	if x.db != nil {
		for i := range t.h {
			cd := &t.h[i]
			cd.d2 = kernel.SqDist(f, x.entry(c.lists[cd.li], int(cd.pos)).F)
		}
	}
	// Select the best k in place: best's heap grows over the front of the
	// array it is fed from, and never writes a slot the loop has yet to read.
	best := pqTopK{k: k, h: t.h[:0]}
	for _, cd := range t.h {
		best.consider(cd)
	}
	slices.SortFunc(best.h, pqCompare)
	out := make([]fingerprint.Match, len(best.h))
	for i, cd := range best.h {
		e := x.entry(c.lists[cd.li], int(cd.pos))
		out[i] = fingerprint.Match{
			Index:    int(cd.idx),
			Source:   e.S,
			Label:    label,
			Hash:     e.H,
			Distance: math.Sqrt(cd.d2),
		}
	}
	return out
}

// pqScratch is the per-query working set: the centroid distances and
// the probed lists chosen from them, the shortlist heap (sorted in place
// by refine), the query residual, the ADC table (16 KiB at M 16), and
// the kernel output buffers. One is taken per query (and per worker of
// a fanned-out scan) and recycled through pqScratchPool, so a search
// allocates only the matches it returns.
type pqScratch struct {
	cd2    []float64
	probed []int32
	top    pqTopK
	res    []float32
	tab    []float32
	d2s    [pqKs]float64
	buf    [scanBlock]float64
}

var pqScratchPool = sync.Pool{New: func() any { return new(pqScratch) }}

// getPQScratch takes a scratch from the pool sized for dim-length
// residuals and m-subquantizer tables.
func getPQScratch(dim, m int) *pqScratch {
	s := pqScratchPool.Get().(*pqScratch)
	if cap(s.res) < dim {
		s.res = make([]float32, dim)
	}
	if cap(s.tab) < m*pqKs {
		s.tab = make([]float32, m*pqKs)
	}
	s.res, s.tab = s.res[:dim], s.tab[:m*pqKs]
	return s
}

// scanList builds the ADC table for one probed list (from the query's
// residual against that list's centroid) and feeds the list's codes
// through the heap, scanBlock rows per kernel call.
func (x *IVFPQ) scanList(c *ivfpqClass, f fingerprint.Fingerprint, ci int, t *pqTopK, s *pqScratch) {
	l := c.lists[ci]
	n := l.n()
	if n == 0 {
		return
	}
	cen := c.centroids[ci*x.dim : (ci+1)*x.dim]
	for j := range s.res {
		s.res[j] = f[j] - cen[j]
	}
	c.book.table(s.res, s.tab, s.d2s[:])
	li := int32(ci)
	for off := 0; off < n; {
		nn := min(scanBlock, n-off)
		kernel.ADCScan(s.tab, l.codes[off*x.m:(off+nn)*x.m], x.m, s.buf[:nn])
		for i := 0; i < nn; i++ {
			// Equal distance can still win on the index tie-break, so <=.
			if d2 := s.buf[i]; d2 <= t.threshold() {
				t.consider(pqCand{d2: d2, idx: l.idx[off+i], li: li, pos: int32(off + i)})
			}
		}
		off += nn
	}
}

// pqCand is one scan candidate: squared distance (the ADC estimate
// until refine overwrites it), the database index (the tie-break —
// lists don't share the bucket's position-order-is-index-order
// property), and the (list, position) that resolves to its linkage.
type pqCand struct {
	d2      float64
	idx     int32
	li, pos int32
}

// pqCompare orders candidates by squared distance, ties by database
// index.
func pqCompare(a, b pqCand) int {
	if a.d2 != b.d2 {
		if a.d2 < b.d2 {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// pqTopK is the bounded max-heap over ADC candidates, the IVFPQ
// counterpart of topK (which is tied to float-vector buckets). It lives
// in a pqScratch and is reset, not reallocated, per query.
type pqTopK struct {
	k int
	h []pqCand
}

func (t *pqTopK) reset(k int) { t.k, t.h = k, t.h[:0] }

func (t *pqTopK) worse(a, b pqCand) bool { return pqCompare(b, a) < 0 }

func (t *pqTopK) threshold() float64 {
	if len(t.h) < t.k {
		return math.Inf(1)
	}
	return t.h[0].d2
}

func (t *pqTopK) consider(c pqCand) {
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

func (t *pqTopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(t.h[i], t.h[p]) {
			return
		}
		t.h[i], t.h[p] = t.h[p], t.h[i]
		i = p
	}
}

func (t *pqTopK) siftDown(i int) {
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

func (t *pqTopK) merge(o *pqTopK) {
	for _, c := range o.h {
		t.consider(c)
	}
}
