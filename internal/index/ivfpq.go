package index

import (
	"fmt"
	"math/rand/v2"
	"slices"

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

// pqList is one inverted list of an IVFPQ class: per-entry database
// indices and codes. An entry's float row and provenance stay where the
// database keeps them.
type pqList struct {
	idx   []int32
	codes []byte // n×m, row-major
}

// ivfpqClass is one label's coarse quantizer, PQ codebook, and
// product-quantized inverted lists.
type ivfpqClass struct {
	coarse
	x     *IVFPQ // the owning index: dim, m, and the database rows are read from
	book  *pqCodebook
	lists []*pqList
	n     int
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
// The index copies neither float vectors nor provenance: it holds the
// database and resolves an entry by its index.
//
// IVFPQ implements Appender: a new vector is encoded against its
// label's nearest centroid without retraining, and Drift reports the
// appended fraction so the ingest path can retrain and hot-swap, same
// as IVF.
type IVFPQ struct {
	coarseStage
	m      int
	labels map[int]*ivfpqClass
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
// 1.000 at 32.
func (*ivfpqClass) shortlist(k int) int { return max(4*k, 32) }

// TrainIVFPQ builds an IVFPQ index from a snapshot of the linkage
// database: per label, the IVF coarse training pass (shared with
// TrainIVF), then per-subquantizer k-means over the residuals of a
// sample and one encoding pass. It allocates what the index keeps —
// codes, centroids, codebooks, list identities; db itself is the
// caller's — and one workspace (kmeans): a label's float vectors are
// read where the database keeps them.
func TrainIVFPQ(db *fingerprint.DB, opts IVFPQOptions) (*IVFPQ, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("index: cannot train IVFPQ on an empty database")
	}
	dim := db.Dim()
	o := opts.withDefaults(dim)
	if o.M < 1 || dim%o.M != 0 {
		return nil, fmt.Errorf("index: IVFPQ M=%d must divide the fingerprint dimensionality %d", o.M, dim)
	}
	x := &IVFPQ{m: o.M, labels: make(map[int]*ivfpqClass)}
	x.dim, x.db = dim, db
	nprobe := 0
	var km kmeans
	for _, y := range db.Labels() {
		b := buildBucket(db, y, &km)
		co := o.IVFOptions.withDefaults(len(b.idx))
		x.labels[y] = x.trainClass(b, co, &km)
		x.total += len(b.idx)
		nprobe = max(nprobe, co.Nprobe)
	}
	x.nprobe.Store(int32(nprobe))
	return x, nil
}

// trainClass runs the full per-label pipeline: the coarse quantizer
// (trainCoarse, which leaves each bucket position's list in km.assign),
// PQ codebook training on the residuals of a sample, and the encoding
// pass that turns the bucket's float vectors into per-list code arrays,
// each code written once, where it stays. Residuals are computed where
// they are consumed (residuals), never as a whole matrix.
func (x *IVFPQ) trainClass(b *bucket, co IVFOptions, km *kmeans) *ivfpqClass {
	dim, m, n := x.dim, x.m, len(b.idx)
	dsub := dim / m
	c := &ivfpqClass{coarse: trainCoarse(&b.vecs, co, km), x: x, n: n}
	assign := km.assign
	rs := &residuals{vecs: &b.vecs, centroids: c.centroids, assign: assign, dsub: dsub}

	// PQ training draws from a stream disjoint from the coarse
	// quantizer's so the two stages can't correlate; the sample floor
	// keeps a small coarse SampleCap from starving 256-means.
	rng := rand.New(rand.NewPCG(co.Seed^0x9e3779b97f4a7c15, uint64(n)<<16|uint64(m)))
	c.book = trainPQ(rs, n, m, co.Iters, max(co.SampleCap, 8*pqKs), rng, km)

	// Encode every point straight into its list: order, the coarse lists'
	// arena, is the bucket positions list by list, so position q of it is
	// entry q-start[ci] of its list ci, and the pass fans out over points,
	// not lists, packing assignTile residuals per batched encode. The
	// lists' codes and identities are laid out the same way, each list a
	// capacity-clipped run of one arena (as invertedLists'), so an Append
	// to a list moves that list alone.
	km.order = resize(km.order, n)
	order := km.order
	c.lists = make([]*pqList, c.nlist)
	held, start := make([]pqList, c.nlist), make([]int, c.nlist)
	codes, idx := make([]byte, n*m), make([]int32, n)
	q := 0
	for ci, list := range invertedLists(assign, c.nlist, order) {
		lo, hi := q, q+len(list)
		held[ci] = pqList{codes: codes[lo*m : hi*m : hi*m], idx: idx[lo:hi:hi]}
		c.lists[ci], start[ci], q = &held[ci], lo, hi
	}
	parallelChunks(n, func(lo, hi int) {
		t := km.tile(dim, m)
		defer km.release(t)
		for q0 := lo; q0 < hi; q0 += assignTile {
			nq := min(assignTile, hi-q0)
			for i := range nq {
				rs.span(int(order[q0+i]), 0, t.r)
				c.book.pack(t.res, t.r, i, nq)
			}
			c.book.encode(t.res, nq, t.codes, t.near)
			for i := range nq {
				p := int(order[q0+i])
				l, k := c.lists[assign[p]], q0+i-start[assign[p]]
				copy(l.codes[k*m:(k+1)*m], t.codes[i*m:(i+1)*m])
				l.idx[k] = b.idx[p]
			}
		}
	})
	return c
}

// M returns the number of subquantizers (code bytes per entry).
func (x *IVFPQ) M() int { return x.m }

// Kind implements Searcher.
func (x *IVFPQ) Kind() string { return "ivfpq" }

// VectorBytes reports the bytes of search geometry the index holds in
// memory: M code bytes and a 4-byte database index per entry, plus the
// coarse centroid tables and PQ codebooks. No float vector is copied,
// which is the point — at dim 64 and M 16 this is ~1/13 of
// Flat.VectorBytes for the same entries (the centroid/codebook share
// amortizes away as classes grow). The rows the exact stage reads are
// the database's, counted there.
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

// OwnedBytes reports what the index keeps resident beyond the database:
// VectorBytes by capacity, plus the coarse centroids' planar copy.
func (x *IVFPQ) OwnedBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var total int64
	for _, c := range x.labels {
		total += c.coarse.bytes() + 4*int64(cap(c.book.centroids))
		for _, l := range c.lists {
			total += int64(cap(l.codes)) + 4*int64(cap(l.idx))
		}
	}
	return total
}

// Append implements Appender: each entry is encoded against its label's
// nearest centroid and its code joins that inverted list; neither the
// coarse quantizer nor the codebook retrains. A label the index has
// never seen starts as a degenerate one-list class whose centroid is
// the entry's row and whose codebook is all-zero (so the residual
// encodes exactly).
func (x *IVFPQ) Append(dbIndex int, l ...fingerprint.Linkage) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.reach(dbIndex, l, func(i int, e fingerprint.Linkage) {
		x.appended++
		c := x.labels[e.Y]
		if c == nil {
			x.labels[e.Y] = &ivfpqClass{
				coarse: newCoarse(slices.Clone(e.F), 1, x.dim),
				x:      x,
				book:   newCodebook(x.m, x.dim/x.m),
				lists:  []*pqList{{codes: make([]byte, x.m), idx: []int32{int32(i)}}},
				n:      1,
			}
			return
		}
		best := c.nearest(e.F)
		cen := c.centroids[best*x.dim : (best+1)*x.dim]
		if x.appendRes == nil {
			x.appendRes = make([]float32, x.dim)
		}
		for j := range x.appendRes {
			x.appendRes[j] = e.F[j] - cen[j]
		}
		lst := c.lists[best]
		n := len(lst.codes)
		lst.codes = grow(lst.codes, x.m)[:n+x.m]
		var near [1]int32
		c.book.encode(x.appendRes, 1, lst.codes[n:], near[:])
		lst.idx = append(grow(lst.idx, 1), int32(i))
		c.n++
	})
}

// Rebase implements Appender.
func (x *IVFPQ) Rebase(db *fingerprint.DB) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.db = db
}

// class implements backend.
func (x *IVFPQ) class(label int) (class, int) {
	if c, ok := x.labels[label]; ok {
		return c, x.Nprobe()
	}
	return nil, 0
}

// Search returns approximately the k nearest same-label entries: the
// nprobe lists whose centroids are closest to f are scanned by ADC
// table lookups, and the shortlist that survives is re-ranked by exact
// distance (see IVFPQ), ties broken by database index.
func (x *IVFPQ) Search(f fingerprint.Fingerprint, label, k int) ([]fingerprint.Match, error) {
	return search(x, &x.mu, f, label, k)
}

// SearchBatch implements fingerprint.BatchSearcher. As with IVF, the
// coarse stage is batched per label group (one blocked kernel sweep of
// the centroid table); each query then scans its own probed lists.
// Results are identical to per-query Search calls.
func (x *IVFPQ) SearchBatch(fs []fingerprint.Fingerprint, labels []int, ks []int) ([][]fingerprint.Match, []error) {
	return searchBatch(x, &x.mu, fs, labels, ks)
}

func (c *ivfpqClass) listLen(li int32) int { return len(c.lists[li].idx) }

// scanList is the ADC stage: it builds the lookup table for list li
// (from the query's residual against that list's centroid) and scores
// the list's codes through it, no float vector touched. A fanned-out
// sweep that splits a list builds its table once per share.
func (c *ivfpqClass) scanList(w *scratch, q []float32, heaps []topK, li int32, lo, hi int) {
	dim, m, l := c.x.dim, c.x.m, c.lists[li]
	cen := c.centroids[int(li)*dim : (int(li)+1)*dim]
	w.res, w.tab = resize(w.res, dim), resize(w.tab, m*pqKs)
	for j := range w.res {
		w.res[j] = q[j] - cen[j]
	}
	c.book.table(w.res, w.tab, w.d2s[:])
	for off := lo; off < hi; off += scanBlock {
		n := min(scanBlock, hi-off)
		kernel.ADCScan(w.tab, l.codes[off*m:(off+n)*m], m, w.buf[:n])
		heaps[0].offer(w.buf[:n], off, nil, l.idx)
	}
}

// rescore is the exact stage, run once on the merged shortlist: every
// candidate's ADC estimate is replaced by the kernel distance to the
// row the database keeps for it.
func (c *ivfpqClass) rescore(q []float32, h []cand) {
	for i := range h {
		h[i].d2 = kernel.SqDist(q, c.x.db.Row(int(h[i].idx)))
	}
}
