package index

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
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

// pqList is one inverted list of an IVFPQ class: per-entry codes plus
// the provenance kept parallel, no float vectors at all.
type pqList struct {
	codes []byte // n×m, row-major
	idx   []int32
	src   []string
	hash  [][32]byte
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
// minus coarse centroid) instead of the 4·dim-byte vector. A query
// ranks centroids with the float kernel, then for each probed list
// builds an ADC lookup table from its residual and scores the list's
// codes with kernel.ADCScan — M table lookups per candidate, no float
// vector ever touched.
//
// Distances (and therefore ranking) are the ADC approximation of the
// true L2 distance; recall is governed by nprobe and M and measured by
// TestIVFPQRecall. Match.Distance carries the approximate value.
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
	// appendRes is Append's residual scratch, guarded by the write lock
	// so an append allocates only what the lists themselves grow by.
	appendRes []float32
}

// TrainIVFPQ builds an IVFPQ index from a snapshot of the linkage
// database: per label, the IVF coarse training pass (shared with
// TrainIVF), then per-subquantizer k-means over the residuals and one
// encoding pass. A label's float vectors are read where the database
// keeps them (or from a copy that lives only while that label trains)
// and never retained — only codes, centroids, and codebooks are.
func TrainIVFPQ(db *fingerprint.DB, opts IVFPQOptions) (*IVFPQ, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("index: cannot train IVFPQ on an empty database")
	}
	dim := db.Dim()
	o := opts.withDefaults(dim)
	if o.M < 1 || dim%o.M != 0 {
		return nil, fmt.Errorf("index: IVFPQ M=%d must divide the fingerprint dimensionality %d", o.M, dim)
	}
	x := &IVFPQ{dim: dim, m: o.M, labels: make(map[int]*ivfpqClass)}
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
		l := &pqList{
			codes: make([]byte, len(list)*m),
			idx:   make([]int32, len(list)),
			src:   make([]string, len(list)),
			hash:  make([][32]byte, len(list)),
		}
		for i, p := range list {
			copy(l.codes[i*m:(i+1)*m], codes[int(p)*m:(int(p)+1)*m])
			l.idx[i] = b.idx[p]
			l.src[i] = b.src[p]
			l.hash[i] = b.hash[p]
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
// coarse centroid tables and PQ codebooks. No float vectors are
// retained, which is the point — at dim 64 and M 16 this is ~1/13 of
// Flat.VectorBytes for the same entries (the centroid/codebook share
// amortizes away as classes grow). Provenance metadata (source, hash)
// is excluded, as in Flat.VectorBytes.
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
// encodes exactly).
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
				src:   []string{l.S},
				hash:  [][32]byte{l.H},
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
		lst.src = append(lst.src, l.S)
		lst.hash = append(lst.hash, l.H)
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

// Search returns approximately the k nearest same-label entries: the
// nprobe lists whose centroids are closest to f are scanned by ADC
// table lookups. Ranking is by approximate (ADC) distance, ties broken
// by database index.
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
	d2s := make([]float64, c.nlist)
	kernel.DistanceRows(f, c.centroids, x.dim, d2s)
	cds := make([]cd, c.nlist)
	for ci, d2 := range d2s {
		cds[ci] = cd{ci, d2}
	}
	return x.scanProbed(c, f, label, k, cds), nil
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
			cds := make([]cd, c.nlist)
			for ci, d2 := range d2s[j*c.nlist : (j+1)*c.nlist] {
				cds[ci] = cd{ci, d2}
			}
			results[i] = x.scanProbed(c, fs[i], label, ks[i], cds)
		}
	}
	return results, errs
}

// scanProbed selects the nprobe closest lists from the (unsorted)
// centroid ranking and ADC-scans their codes. Small candidate sets run
// serially with one heap; large ones fan the probed lists out across
// goroutines (each list's table build and scan are independent) and
// merge per-list heaps. Callers hold the read lock.
func (x *IVFPQ) scanProbed(c *ivfpqClass, f fingerprint.Fingerprint, label, k int, cds []cd) []fingerprint.Match {
	nprobe := min(int(x.nprobe.Load()), c.nlist)
	sort.Slice(cds, func(a, b int) bool { return cds[a].d2 < cds[b].d2 })
	probed := cds[:nprobe]

	total := 0
	for _, pc := range probed {
		total += c.lists[pc.ci].n()
	}
	if total < parallelScanThreshold {
		t := newPQTopK(k)
		s := getPQScratch(x.dim, x.m)
		for _, pc := range probed {
			x.scanList(c, f, pc.ci, t, s)
		}
		pqScratchPool.Put(s)
		return t.matches(label, c)
	}
	final := newPQTopK(k)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, pc := range probed {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			t := newPQTopK(k)
			s := getPQScratch(x.dim, x.m)
			x.scanList(c, f, ci, t, s)
			pqScratchPool.Put(s)
			mu.Lock()
			final.merge(t)
			mu.Unlock()
		}(pc.ci)
	}
	wg.Wait()
	return final.matches(label, c)
}

// pqScratch is the per-scan working set: the query residual, the ADC
// table (16 KiB at M 16), and the kernel output buffers. One is taken
// per (possibly per-worker) scan and recycled through pqScratchPool, so
// a query allocates none of it.
type pqScratch struct {
	res []float32
	tab []float32
	d2s [pqKs]float64
	buf [scanBlock]float64
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

// pqCand is one ADC scan candidate: approximate squared distance, the
// database index (the tie-break — lists don't share the bucket's
// position-order-is-index-order property), and the (list, position)
// needed to materialize provenance.
type pqCand struct {
	d2      float64
	idx     int32
	li, pos int32
}

func pqBetter(a, b pqCand) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	return a.idx < b.idx
}

// pqTopK is the bounded max-heap over ADC candidates, the IVFPQ
// counterpart of topK (which is tied to float-vector buckets).
type pqTopK struct {
	k int
	h []pqCand
}

func newPQTopK(k int) *pqTopK {
	return &pqTopK{k: k, h: make([]pqCand, 0, k)}
}

func (t *pqTopK) worse(a, b pqCand) bool { return pqBetter(b, a) }

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
	if pqBetter(c, t.h[0]) {
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

// matches materializes the heap as sorted fingerprint.Match results.
// Distance is the ADC approximation's square root.
func (t *pqTopK) matches(label int, c *ivfpqClass) []fingerprint.Match {
	cands := append([]pqCand(nil), t.h...)
	sort.Slice(cands, func(a, b int) bool { return pqBetter(cands[a], cands[b]) })
	out := make([]fingerprint.Match, len(cands))
	for i, cd := range cands {
		l := c.lists[cd.li]
		out[i] = fingerprint.Match{
			Index:    int(cd.idx),
			Source:   l.src[cd.pos],
			Label:    label,
			Hash:     l.hash[cd.pos],
			Distance: math.Sqrt(cd.d2),
		}
	}
	return out
}
