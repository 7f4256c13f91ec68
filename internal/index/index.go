// Package index provides the nearest-neighbour index backends behind
// CalTrain's accountability query service (§IV-C). The linkage database
// (internal/fingerprint.DB) answers queries with an exact per-label linear
// scan; at production scale — millions of fingerprints, heavy query
// traffic — that path needs a real index.
//
// Three backends implement fingerprint.Searcher:
//
//   - Flat: exact. Contiguous per-label vector storage scanned in full,
//     squared-distance comparisons with a bounded top-k max-heap and one
//     final sqrt per returned match. Same results as DB.Query, much less
//     work per query.
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
// All three answer Search and SearchBatch through one pipeline (scan.go):
// a backend supplies how a label's entries are arranged and scored, the
// pipeline the grouping, heaps, fan-out, pooled scratch and result order.
//
// Every backend is a view of the linkage database it serves: it holds
// the database and, per entry, its database index, and reads everything
// else of a linkage where the database keeps it. Flat and IVF scan a
// label's rows as DB.ClassRows hands them out — the class block LoadDB
// views, then the chunks Add fills, none of which moves — so a
// fingerprint is resident once, whether it was loaded, added before
// the index was built, or ingested after; IVFPQ keeps codes and reaches
// a row through DB.Entry for its exact re-rank. Source and hash resolve
// through the database where a match is materialised.
//
// All three serialize with Save, trained state only, and Load reads a
// saved index back over its database in the state training leaves one
// in, bound to the database's entries by their Digest.
package index

import (
	"fmt"
	"sync"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
)

// Searcher is re-exported for convenience; the canonical definition lives
// in internal/fingerprint so the HTTP service can accept any backend
// without an import cycle.
type Searcher = fingerprint.Searcher

// Appender is re-exported beside Searcher: every backend here
// implements it, and the write path (internal/ingest) takes one.
type Appender = fingerprint.Appender

// Drifter is implemented by appendable backends whose search quality
// decays as appends accumulate. Drift is the fraction of entries
// appended since the backend was (re)trained, in [0, 1]; the ingest
// path retrains and hot-swaps the backend once drift crosses its
// configured threshold. Flat never drifts (it stays exact) and does not
// implement the interface.
type Drifter interface {
	Drift() float64
}

// view is what every backend keeps above its classes: the database it
// is a view of, how many of that database's first entries it holds, and
// the lock that serializes Append against Search.
type view struct {
	mu    sync.RWMutex
	dim   int
	total int
	db    *fingerprint.DB
}

// Dim returns the fingerprint dimensionality.
func (x *view) Dim() int { return x.dim }

// Len returns the number of indexed linkages.
func (x *view) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.total
}

// database is what a search resolves its matches through. Callers hold
// the lock.
func (x *view) database() *fingerprint.DB { return x.db }

// reach is Append for every backend: it stores l, when given, in the
// database, then hands add, in database order, every entry up to dbIndex
// that the index does not hold yet. Callers hold the write lock.
func (x *view) reach(dbIndex int, l []fingerprint.Linkage, add func(i int, e fingerprint.Linkage)) error {
	switch n := x.db.Len(); {
	case len(l) > 1:
		return fmt.Errorf("index: Append stores one linkage, not %d", len(l))
	case len(l) == 1 && dbIndex != n:
		return fmt.Errorf("index: a linkage appended at %d would land at the database's end, %d", dbIndex, n)
	case len(l) == 1:
		if err := x.db.Add(l[0]); err != nil {
			return err
		}
	case dbIndex >= n:
		return fmt.Errorf("index: entry %d is not in the database's %d", dbIndex, n)
	}
	if dbIndex < x.total {
		return fmt.Errorf("index: entry %d is indexed already", dbIndex)
	}
	for ; x.total <= dbIndex; x.total++ {
		add(x.total, x.db.Entry(x.total))
	}
	return nil
}

// bucket is one class label's entries, in database order: each one's
// database index, and the label's rows as the database keeps them.
type bucket struct {
	exact
	idx  []int32
	vecs fingerprint.Rows
}

// rows points the bucket at the rows db keeps for its label y.
func (b *bucket) rows(db *fingerprint.DB, y int) {
	all := db.ClassRows(y)
	b.vecs = all.Prefix(len(b.idx))
}

// add grows the bucket by database entry i, of label y, and returns its
// position: the entry's place in its class, the row the database keeps
// there. Callers hold the owning index's write lock.
func (b *bucket) add(db *fingerprint.DB, i, y int) int32 {
	b.idx = append(grow(b.idx, 1), int32(i))
	b.rows(db, y)
	return int32(len(b.idx) - 1)
}

// grow returns s with room for n more elements. A full s grows by an
// eighth, not append's half or more: an index grows by what is ingested
// between retrains, a small share of what it was built over, so the
// slack is what it owns.
func grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, max(len(s)+n, len(s)+len(s)/8)), s...)
	}
	return s
}

// buildBucket snapshots label y of the database: its entries' database
// indices — into a training workspace when given one, where IVFPQ's
// bucket of a label lives only while that label trains — and a view of
// its rows. Nothing of a linkage is copied.
func buildBucket(db *fingerprint.DB, y int, km *kmeans) *bucket {
	var idx []int32
	if km != nil {
		idx = km.idx
	}
	b := &bucket{idx: db.ClassIndexInto(idx, y)}
	if km != nil {
		km.idx = b.idx
	}
	b.rows(db, y)
	return b
}

// clip keeps the bucket's first n entries: Load's bucket of a label
// when the file covers only a prefix of the database, which catches up
// by Append.
func (b *bucket) clip(n int) {
	b.idx = b.idx[:n]
	b.vecs = b.vecs.Prefix(n)
}

// gather computes out[i] = SqDist(q, row pos[i] of m) for ascending
// positions: one kernel call when they all lie in m's first array (a
// class block), one per row otherwise.
func gather(m *fingerprint.Rows, q []float32, pos []int32, out []float64) {
	dim := m.Dim()
	run, first := m.Array(int(pos[0]))
	end := first + len(run)/dim
	if first == 0 && int(pos[len(pos)-1]) < end {
		kernel.DistanceGather(q, run, dim, pos, out)
		return
	}
	for i, p := range pos {
		if int(p) >= end {
			run, first = m.Array(int(p))
			end = first + len(run)/dim
		}
		o := (int(p) - first) * dim
		out[i] = kernel.SqDist(q, run[o:o+dim])
	}
}

// A bucket is Flat's class: one list, scanned in full by every query.

func (b *bucket) quantizer() (int, []float32) { return 0, nil }

func (b *bucket) listLen(int32) int { return len(b.idx) }

// scanList visits each block of rows with every query while it is
// cache-resident.
func (b *bucket) scanList(w *scratch, qs []float32, heaps []topK, _ int32, lo, hi int) {
	nq := len(heaps)
	for r := lo; r < hi; {
		run, n := b.vecs.Span(r, min(r+scanBlock, hi))
		kernel.DistanceBatch(qs, run, b.vecs.Dim(), w.buf[:nq*n])
		for j := range heaps {
			heaps[j].offer(w.buf[j*n:(j+1)*n], r, nil, b.idx)
		}
		r += n
	}
}
