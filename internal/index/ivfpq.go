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

// pqList is one inverted list of an IVFPQ class: per-entry codes and
// identities. An entry's float row and provenance stay where the
// database keeps them; of the entries the list keeps itself (see
// entries), one read by Load has no row until AttachDB hands it back to
// the database, and an appended one's aliases the fingerprint Append was
// given.
type pqList struct {
	entries
	codes []byte // n×m, row-major
}

func (l *pqList) n() int { return len(l.idx) }

// ivfpqClass is one label's coarse quantizer, PQ codebook, and
// product-quantized inverted lists.
type ivfpqClass struct {
	x         *IVFPQ // the owning index: dim, m, and the database entries resolve through
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
	coarseStage
	m      int
	labels map[int]*ivfpqClass
	// db resolves the entries no list carries (every list's entries.db);
	// nil for a loaded index until AttachDB. It may be a Snapshot:
	// entries appended later arrive through Append with their own row.
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
func (c *ivfpqClass) shortlist(k int) int {
	if c.x.db == nil {
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
	x := &IVFPQ{m: o.M, db: db, labels: make(map[int]*ivfpqClass)}
	x.dim = dim
	nprobe := 0
	var km kmeans
	for _, y := range db.Labels() {
		b := buildBucket(db, y)
		co := o.IVFOptions.withDefaults(b.n)
		x.labels[y] = x.trainClass(b, co, &km)
		x.total += b.n
		nprobe = max(nprobe, co.Nprobe)
	}
	x.nprobe.Store(int32(nprobe))
	return x, nil
}

// trainClass runs the full per-label pipeline: coarse k-means (the
// IVF trainer), PQ codebook training on the residuals of a sample, and
// the encoding pass that turns the bucket's float vectors into per-list
// code arrays, each code written once, where it stays. Residuals (vector
// minus its coarse centroid) are computed where they are consumed — for
// the training sample, and assignTile rows at a time while encoding —
// never as a whole n×dim matrix.
func (x *IVFPQ) trainClass(b *bucket, co IVFOptions, km *kmeans) *ivfpqClass {
	dim, m := x.dim, x.m
	ivfc := trainClass(b, co, km)
	c := &ivfpqClass{x: x, nlist: ivfc.nlist, centroids: ivfc.centroids, n: b.n}

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
	c.book = trainPQ(residual, b.n, dim, m, co.Iters, max(co.SampleCap, 8*pqKs), rng, km)

	// Encode every point straight into its list: order is the bucket
	// positions list by list, so position q of it is entry q-start[ci] of
	// its list ci, and the pass fans out over points, not lists, packing
	// assignTile residuals per batched encode.
	c.lists = make([]*pqList, c.nlist)
	start := make([]int, c.nlist)
	order := make([]int32, 0, b.n)
	for ci, list := range ivfc.lists {
		c.lists[ci] = &pqList{codes: make([]byte, len(list)*m), entries: entries{db: x.db, idx: make([]int32, len(list))}}
		start[ci] = len(order)
		order = append(order, list...)
	}
	parallelChunks(b.n, func(lo, hi int) {
		r, res := make([]float32, dim), make([]float32, assignTile*dim)
		codes, near := make([]byte, assignTile*m), make([]int32, assignTile)
		for q0 := lo; q0 < hi; q0 += assignTile {
			nq := min(assignTile, hi-q0)
			for i := range nq {
				residual(int(order[q0+i]), r)
				c.book.pack(res, r, i, nq)
			}
			c.book.encode(res, nq, codes, near)
			for i := range nq {
				p := int(order[q0+i])
				l, k := c.lists[assign[p]], q0+i-start[assign[p]]
				copy(l.codes[k*m:(k+1)*m], codes[i*m:(i+1)*m])
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

// OwnedBytes reports what the index keeps resident beyond the database
// it was built over: VectorBytes by capacity, plus the linkage of every
// entry Append handed it (and of every entry of an index read by Load,
// until AttachDB).
func (x *IVFPQ) OwnedBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var total int64
	for _, c := range x.labels {
		total += 4*int64(cap(c.centroids)) + 4*int64(cap(c.book.centroids))
		for _, l := range c.lists {
			total += int64(cap(l.codes)) + l.entries.bytes()
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
			x:         x,
			nlist:     1,
			centroids: append([]float32(nil), l.F...),
			book:      newCodebook(x.m, x.dim/x.m),
			lists: []*pqList{{
				codes: make([]byte, x.m),
				entries: entries{db: x.db, idx: []int32{int32(dbIndex)},
					src: []string{l.S}, hash: [][32]byte{l.H}, f: []fingerprint.Fingerprint{l.F}},
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
		var near [1]int32
		c.book.encode(x.appendRes, 1, lst.codes[n:], near[:])
		lst.idx = append(lst.idx, int32(dbIndex))
		lst.src, lst.hash, lst.f = append(lst.src, l.S), append(lst.hash, l.H), append(lst.f, l.F)
		c.n++
	}
	x.total++
	x.appended++
	return nil
}

// loaded counts the entries the list still carries from Load: the
// row-less head of the ones it keeps.
func (l *pqList) loaded() int {
	n := 0
	for n < len(l.f) && l.f[n] == nil {
		n++
	}
	return n
}

// AttachDB gives an index read by Load the database it indexes: its
// entries must be db's first Len() entries, each db's entry of that
// index (same label, source and hash), or AttachDB refuses with
// ErrForeignIndex and leaves the index as it was. After it the lists
// drop their carried provenance and searches run the exact stage against
// db's rows, as on a trained index. An index that already has a
// database keeps it. Attach is AttachDB plus catching up the entries db
// holds past the index's.
func (x *IVFPQ) AttachDB(db *fingerprint.DB) error {
	x.mu.RLock()
	attached := x.db != nil
	x.mu.RUnlock()
	if attached {
		return nil
	}
	if err := checkPrefix(x, db); err != nil {
		return err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.db != nil { // attached meanwhile
		return nil
	}
	for _, c := range x.labels {
		for _, l := range c.lists {
			k := l.loaded()
			l.db, l.src, l.hash, l.f = db, slices.Clone(l.src[k:]), slices.Clone(l.hash[k:]), slices.Clone(l.f[k:])
		}
	}
	x.db = db
	return nil
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

func (c *ivfpqClass) quantizer() (int, []float32) { return c.nlist, c.centroids }

func (c *ivfpqClass) listLen(li int32) int { return c.lists[li].n() }

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
		heaps[0].offer(w.buf[:n], off, nil, &l.entries)
	}
}

// rescore is the exact stage, run once on the merged shortlist: with a
// database, every candidate's ADC estimate is replaced by the kernel
// distance to its float row.
func (c *ivfpqClass) rescore(q []float32, h []cand) {
	if c.x.db == nil {
		return
	}
	for i := range h {
		h[i].d2 = kernel.SqDist(q, h[i].in.row(int(h[i].pos)))
	}
}
