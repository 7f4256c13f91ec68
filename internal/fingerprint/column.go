package fingerprint

import "slices"

// A chunk of a column holds chunkEntries entries, fewer when that would
// pass chunkElems elements: at dim 64 a chunk of rows is 256 rows in
// 64 KiB, of hashes 8 KiB, of labels 1 KiB, so a database built by Add
// pays one allocation per column per 256 entries and wastes at most one
// chunk per column; at dim 100 000 a chunk is one row, not a hundred
// megabytes for the first Add.
const (
	chunkEntries = 256
	chunkElems   = 1 << 16
)

// column is an append-only sequence of fixed-width entries whose storage
// never moves: base, one array sized exactly by LoadDB and never
// appended to, then chunks of per entries each, allocated whole. An
// entry stays at the address it was written to, so Snapshot shares a
// column's storage instead of copying it, a slice at hands out stays
// valid for good, and growing the column never leaves a superseded copy
// behind for an older snapshot to pin.
type column[T any] struct {
	w, per int   // elements per entry, entries per chunk
	n      int   // entries stored
	nb     int   // entries in base
	base   []T   // entries [0, nb)
	chunks [][]T // entries [nb, n)
}

// newColumn returns an empty column of w elements per entry.
func newColumn[T any](w int) column[T] {
	return column[T]{w: w, per: max(1, min(chunkEntries, chunkElems/w))}
}

// loadedColumn returns a column whose n entries are base.
func loadedColumn[T any](w int, base []T) column[T] {
	c := newColumn[T](w)
	c.base, c.n, c.nb = base, len(base)/w, len(base)/w
	return c
}

// at returns entry i, capacity-clipped so an append to it cannot reach
// its neighbour. Entries at n and beyond are a later writer's, which a
// snapshot sharing the storage must not see: asking for one is a bug.
func (c *column[T]) at(i int) []T {
	if uint(i) >= uint(c.n) {
		panic("fingerprint: column index out of range")
	}
	if i < c.nb {
		return c.base[i*c.w : (i+1)*c.w : (i+1)*c.w]
	}
	i -= c.nb
	o := i % c.per * c.w
	return c.chunks[i/c.per][o : o+c.w : o+c.w]
}

// len is the number of entries stored; a nil column, a label no entry
// has, holds none.
func (c *column[T]) len() int {
	if c == nil {
		return 0
	}
	return c.n
}

// get returns entry i of a column of width one.
func (c *column[T]) get(i int) T { return c.at(i)[0] }

// append stores one entry of c.w elements.
func (c *column[T]) append(v ...T) {
	i := c.n - c.nb
	if i/c.per == len(c.chunks) {
		c.chunks = append(c.chunks, make([]T, c.per*c.w))
	}
	copy(c.chunks[i/c.per][i%c.per*c.w:], v)
	c.n++
}

// prefix returns the column's first n entries over the same storage.
// The chunk table is capacity-clipped, so an append on either side
// grows its own table.
func (c *column[T]) prefix(n int) column[T] {
	out := *c
	out.n, out.nb = n, min(n, c.nb)
	k := (n - out.nb + c.per - 1) / c.per
	out.base, out.chunks = c.base[:out.nb*c.w:out.nb*c.w], c.chunks[:k:k]
	return out
}

// unshare gives a prefix a last chunk of its own, so that its appends
// do not write into entries the column it was cut from has stored since.
// It copies only the prefix's own entries: the rest of the chunk may be
// under that column's writer right now.
func (c *column[T]) unshare() {
	if k := len(c.chunks); k > 0 {
		own := make([]T, c.per*c.w)
		copy(own, c.chunks[k-1][:(c.n-c.nb-(k-1)*c.per)*c.w])
		c.chunks = append(slices.Clone(c.chunks[:k-1]), own)
	}
}

// bytes is the storage the column keeps resident, unfilled chunk space
// included, for elements of the given size.
func (c *column[T]) bytes(elem int) int64 {
	return int64(len(c.base)+len(c.chunks)*c.per*c.w) * int64(elem)
}
