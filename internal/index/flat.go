package index

import (
	"fmt"
	"sync"

	"caltrain/internal/fingerprint"
)

// Flat is the exact backend: per-label contiguous vector storage scanned
// in full for every query. It returns results identical to DB.Query but
// replaces the full sort with a bounded top-k max-heap, compares squared
// distances (one sqrt per returned match instead of one per entry), and
// fans large classes out across cores.
//
// Flat implements Appender: the ingest path grows per-label buckets in
// place, and appended entries are immediately visible to searches with
// no recall loss (the scan stays exhaustive). Append and Search are
// serialized under an internal RWMutex; concurrent searches still run
// in parallel.
type Flat struct {
	mu      sync.RWMutex
	dim     int
	total   int
	buckets map[int]*bucket
}

// NewFlat builds an exact index from a snapshot of the linkage database.
// Entries added to the database afterwards are not visible unless fed in
// with Append.
func NewFlat(db *fingerprint.DB) *Flat {
	x := &Flat{dim: db.Dim(), buckets: make(map[int]*bucket)}
	for _, y := range db.Labels() {
		b := buildBucket(db, y, nil)
		x.buckets[y] = b
		x.total += b.n
	}
	return x
}

// Dim returns the fingerprint dimensionality.
func (x *Flat) Dim() int { return x.dim }

// Len returns the number of indexed linkages.
func (x *Flat) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.total
}

// Kind implements Searcher.
func (x *Flat) Kind() string { return "flat" }

// Append implements Appender: it grows the label's bucket in place. The
// entry is visible to searches as soon as Append returns.
func (x *Flat) Append(dbIndex int, l fingerprint.Linkage) error {
	if len(l.F) != x.dim {
		return fmt.Errorf("%w: appended fingerprint has %d dims, index %d", fingerprint.ErrDimMismatch, len(l.F), x.dim)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	b := x.buckets[l.Y]
	if b == nil {
		b = &bucket{vecs: rows{dim: x.dim}}
		x.buckets[l.Y] = b
	}
	b.appendEntry(int32(dbIndex), l)
	x.total++
	return nil
}

// VectorBytes reports the bytes of search geometry the index scans —
// vector storage plus the per-entry database indices — whether the
// rows are its own or the database's class block, aliased. For Flat
// this is essentially 4·dim bytes per entry; the IVFPQ backend's
// VectorBytes divides this by roughly 4·dim/M. The bench trajectory's
// bytes/entry rows and the TestIVFPQRecall memory assertion both
// compare backends through this method; OwnedBytes is what the index
// adds to the process.
func (x *Flat) VectorBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var total int64
	for _, b := range x.buckets {
		total += b.vecs.bytes()
		total += 4 * int64(len(b.idx))
	}
	return total
}

// OwnedBytes reports what the index keeps resident beyond the database
// it was built over: per entry a database index, plus the rows and the
// linkage of every entry Append handed it (and of every entry when the
// database had no class block to alias, or the index came from Load).
func (x *Flat) OwnedBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var total int64
	for _, b := range x.buckets {
		total += b.ownedBytes()
	}
	return total
}

// class implements backend: a label's bucket is its class.
func (x *Flat) class(label int) (class, int) {
	if b, ok := x.buckets[label]; ok {
		return b, 1
	}
	return nil, 0
}

// Search returns the k nearest same-label entries to f, ascending by L2
// distance with ties broken by database index — exactly DB.Query's
// contract.
func (x *Flat) Search(f fingerprint.Fingerprint, label, k int) ([]fingerprint.Match, error) {
	return search(x, &x.mu, f, label, k)
}

// SearchBatch implements fingerprint.BatchSearcher: queries sharing a
// label are answered by ONE blocked sweep of the label's bucket (each
// cache-resident block of vectors is visited by every query before the
// next loads), so a batch of B same-label queries costs one pass of
// memory traffic instead of B. Results are identical to per-query
// Search calls; each query fails or succeeds independently.
func (x *Flat) SearchBatch(fs []fingerprint.Fingerprint, labels []int, ks []int) ([][]fingerprint.Match, []error) {
	return searchBatch(x, &x.mu, fs, labels, ks)
}
