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
// Flat and IVF keep each label's vectors in a bucket of two row-major
// segments. base holds the rows the index was built over and is never
// written again: when the database came from fingerprint.LoadDB it is
// the database's own class block (DB.ClassBlock), aliased, so a loaded
// fingerprint is resident once, not once per layer; for a database
// built by Add it is a private copy. tail is the index-owned segment
// Append grows, so appends never reallocate or duplicate base. Positions
// run through base then tail, in database order. IVFPQ keeps no copy of
// any float vector: its trainer reads the same buckets and drops them,
// and its searches reach a row through the database the index was
// trained over (or, for an appended entry, through the linkage Append
// was handed).
//
// Provenance has the same split in all three (see entries): an index
// keeps the database it was built over and each entry's database index,
// resolves source and hash through them when a match is materialised or
// saved, and keeps a source and hash of its own only for what Append
// handed it.
//
// All three serialize with Save, and Load reads a saved index back over
// its database in the state training leaves one in: the same aliased
// buckets and database-resolved entries, every entry checked against the
// database on the way in.
package index

import (
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
	shared     bool // base is the database's class block, not the index's own
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

// entries is the identity side of a run of index entries — a bucket's,
// or one IVFPQ list's: the database index of each, and what the index
// keeps of a linkage itself. That is kept only for the run's last
// len(src) entries: the ones that arrived through Append, which the
// database the index was built over need not hold. The entries before
// them are the database's and resolve through it by index, so a
// linkage's provenance is resident once.
type entries struct {
	db   *fingerprint.DB // what the index was built over, or loaded over
	idx  []int32         // database indices
	src  []string        // S of each kept entry
	hash [][32]byte      // H of each kept entry
	// f is IVFPQ's alone, which has no vector storage of its own: each
	// kept entry's row, aliasing the fingerprint Append was handed.
	f []fingerprint.Fingerprint
}

// kept is the position of the run's first kept entry.
func (e *entries) kept() int { return len(e.idx) - len(e.src) }

// provenance resolves position pos of the run to its source and hash.
// Callers hold the owning index's lock.
func (e *entries) provenance(pos int) (string, [32]byte) {
	if r := e.kept(); pos >= r {
		return e.src[pos-r], e.hash[pos-r]
	}
	l := e.db.Entry(int(e.idx[pos]))
	return l.S, l.H
}

// row resolves position pos of an IVFPQ list to its float row: the
// database's, or the one the list aliases for an entry it keeps.
func (e *entries) row(pos int) []float32 {
	if r := e.kept(); pos >= r {
		return e.f[pos-r]
	}
	return e.db.Entry(int(e.idx[pos])).F
}

// bytes is the storage of the run's identities, by capacity.
func (e *entries) bytes() int64 {
	return 4*int64(cap(e.idx)) + 16*int64(cap(e.src)) + 32*int64(cap(e.hash)) + 24*int64(cap(e.f))
}

// bucket is one class label's slice of the index: vectors stored
// contiguously for cache-friendly scanning (see rows and the package
// comment for the base/tail split), identities parallel (see entries).
type bucket struct {
	exact
	entries
	n    int
	vecs rows
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
// Nothing else of a linkage is copied: the bucket keeps each entry's
// database index and db. Given a training workspace, the identities and
// copied rows go into its storage instead of the bucket's own: IVFPQ's
// bucket of a label lives only while that label trains.
func buildBucket(db *fingerprint.DB, y int, km *kmeans) *bucket {
	dim := db.Dim()
	var idx []int32
	var own []float32
	if km != nil {
		idx, own = km.idx, km.own
	}
	idx = db.ClassIndexInto(idx, y)
	block := db.ClassBlock(y)
	nb := len(block) / dim
	if n := (len(idx) - nb) * dim; cap(own) < n {
		own = make([]float32, n)
	} else {
		own = own[:n]
	}
	if km != nil {
		km.idx, km.own = idx, own
	}
	vecs := rows{dim: dim, nb: nb, base: block, tail: own, shared: true}
	if nb == 0 {
		vecs = rows{dim: dim, nb: len(idx), base: own}
	}
	for i := nb; i < len(idx); i++ {
		copy(own[(i-nb)*dim:], db.Entry(int(idx[i])).F)
	}
	return &bucket{entries: entries{db: db, idx: idx}, n: len(idx), vecs: vecs}
}

// clip keeps the bucket's first n entries: Load's bucket of a label
// when the file covers only a prefix of the database, which catches up
// by Append.
func (b *bucket) clip(n int) {
	b.n, b.idx = n, b.idx[:n]
	if n <= b.vecs.nb {
		b.vecs.nb, b.vecs.base, b.vecs.tail = n, b.vecs.base[:n*b.vecs.dim], nil
	} else {
		b.vecs.tail = b.vecs.tail[:(n-b.vecs.nb)*b.vecs.dim]
	}
}

// ownedBytes is what the bucket keeps resident beyond the database: its
// own rows and its identities, by capacity.
func (b *bucket) ownedBytes() int64 {
	n := 4*int64(cap(b.vecs.tail)) + b.entries.bytes()
	if !b.vecs.shared {
		n += 4 * int64(cap(b.vecs.base))
	}
	return n
}

// A bucket is Flat's class: one list, scanned in full by every query.

func (b *bucket) quantizer() (int, []float32) { return 0, nil }

func (b *bucket) listLen(int32) int { return b.n }

// scanList visits each block of rows with every query while it is
// cache-resident.
func (b *bucket) scanList(w *scratch, qs []float32, heaps []topK, _ int32, lo, hi int) {
	nq := len(heaps)
	for r := lo; r < hi; {
		run, n := b.vecs.span(r, min(r+scanBlock, hi))
		kernel.DistanceBatch(qs, run, b.vecs.dim, w.buf[:nq*n])
		for j := range heaps {
			heaps[j].offer(w.buf[j*n:(j+1)*n], r, nil, &b.entries)
		}
		r += n
	}
}
