package index

import "caltrain/internal/fingerprint"

// Flat is the exact backend: each label's rows, as the database keeps
// them, scanned in full for every query. It returns results identical
// to DB.Query but replaces the full sort with a bounded top-k max-heap,
// compares squared distances (one sqrt per returned match instead of
// one per entry), and fans large classes out across cores.
//
// Flat implements Appender: the ingest path grows per-label buckets in
// place, and appended entries are immediately visible to searches with
// no recall loss (the scan stays exhaustive). Append and Search are
// serialized under an internal RWMutex; concurrent searches still run
// in parallel.
type Flat struct {
	view
	buckets map[int]*bucket
}

// NewFlat builds an exact index over the linkage database. Entries added
// to the database afterwards are not visible unless fed in with Append.
func NewFlat(db *fingerprint.DB) *Flat {
	x := &Flat{view: view{dim: db.Dim(), db: db}, buckets: make(map[int]*bucket)}
	for _, y := range db.Labels() {
		b := buildBucket(db, y, nil)
		x.buckets[y] = b
		x.total += len(b.idx)
	}
	return x
}

// Kind implements Searcher.
func (x *Flat) Kind() string { return "flat" }

// Append implements Appender: each entry joins its label's bucket, and
// is visible to searches as soon as Append returns.
func (x *Flat) Append(dbIndex int, l ...fingerprint.Linkage) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.reach(dbIndex, l, func(i int, e fingerprint.Linkage) {
		b := x.buckets[e.Y]
		if b == nil {
			b = &bucket{}
			x.buckets[e.Y] = b
		}
		b.add(x.db, i, e.Y)
	})
}

// Rebase implements Appender: the buckets read db's rows.
func (x *Flat) Rebase(db *fingerprint.DB) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.db = db
	for y, b := range x.buckets {
		b.rows(db, y)
	}
}

// VectorBytes reports the bytes of search geometry the index scans —
// the database's rows it reads plus the per-entry database indices. For Flat
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
		total += int64(4 * (b.vecs.Len()*x.dim + len(b.idx)))
	}
	return total
}

// OwnedBytes reports what the index keeps resident beyond the database:
// a database index per entry, by capacity.
func (x *Flat) OwnedBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var total int64
	for _, b := range x.buckets {
		total += 4 * int64(cap(b.idx))
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
