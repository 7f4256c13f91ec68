package fingerprint

import (
	"math/bits"
	"slices"
)

// A full chunk of a column holds chunkEntries entries, fewer when that
// would pass chunkElems elements: at dim 64 a chunk of rows is 256 rows
// in 64 KiB, of hashes 8 KiB, of labels 1 KiB, so a database built by
// Add pays one allocation per column per 256 entries; at dim 100 000 a
// chunk is one row, not a hundred megabytes for the first Add. The
// chunks before the first full one start at firstElems elements and
// double, so a label's rows, which are a column of their own, waste at
// most 1 KiB or as much as they hold, however many labels there are.
const (
	chunkEntries = 256
	chunkElems   = 1 << 16
	firstElems   = 1 << 8
)

// column is an append-only sequence of fixed-width entries whose storage
// never moves: base, one array sized exactly by LoadDB and never
// appended to, then chunks, each allocated whole: 1<<fshift entries,
// twice that, and so on up to 1<<pshift, then that many each. An entry
// stays at the address it was written to, so Snapshot shares a column's
// storage instead of copying it, a slice At hands out stays valid for
// good, and growing the column never leaves a superseded copy behind
// for an older snapshot to pin. A column value cut by Prefix is a view
// its writer never changes, read without a lock.
type column[T any] struct {
	w              int   // elements per entry
	fshift, pshift int   // log2 of the entries of the first chunk and of a full one
	n              int   // entries stored
	nb             int   // entries in base
	base           []T   // entries [0, nb)
	chunks         [][]T // entries [nb, n)
}

// Rows is a run of dim-float rows as the database stores a label's
// (DB.ClassRows): a base array, then chunks, none of which moves.
type Rows = column[float32]

// NewRows returns the rows of one row-major array of dim-float rows.
func NewRows(dim int, m []float32) Rows { return loadedColumn(dim, m) }

// newColumn returns an empty column of w elements per entry.
func newColumn[T any](w int) column[T] {
	pshift := log2(min(chunkEntries, chunkElems/w))
	return column[T]{w: w, fshift: min(pshift, log2(firstElems/w)), pshift: pshift}
}

// log2 is the base-2 logarithm of n rounded down, and 0 below 2.
func log2(n int) int { return max(0, bits.Len(uint(n))-1) }

// loadedColumn returns a column whose n entries are base.
func loadedColumn[T any](w int, base []T) column[T] {
	c := newColumn[T](w)
	c.base, c.n, c.nb = base, len(base)/w, len(base)/w
	return c
}

// start is the number of entries past base that the chunks before
// chunk k hold, and size the entries chunk k holds.
func (c *column[T]) start(k int) int {
	if ramp := c.pshift - c.fshift; k > ramp {
		return 1<<c.pshift - 1<<c.fshift + (k-ramp)<<c.pshift
	}
	return (1<<k - 1) << c.fshift
}

func (c *column[T]) size(k int) int { return 1 << min(c.fshift+k, c.pshift) }

// locate returns the chunk holding entry i past base, and i's place in
// it: shifts and masks, as a scan gathers rows through it.
func (c *column[T]) locate(i int) (k, off int) {
	if ramped := 1<<c.pshift - 1<<c.fshift; i >= ramped {
		i -= ramped
		return c.pshift - c.fshift + i>>c.pshift, i & (1<<c.pshift - 1)
	}
	k = bits.Len(uint(i>>c.fshift+1)) - 1
	return k, i - (1<<k-1)<<c.fshift
}

// At returns entry i, capacity-clipped so an append to it cannot reach
// its neighbour. Entries at Len() and beyond are a later writer's, which
// a snapshot sharing the storage must not see: asking for one is a bug.
func (c *column[T]) At(i int) []T {
	if uint(i) < uint(c.nb) { // inlined: a class block's rows are read row by row
		return c.base[i*c.w : (i+1)*c.w : (i+1)*c.w]
	}
	run, first := c.Array(i)
	o := (i - first) * c.w
	return run[o : o+c.w : o+c.w]
}

// Array returns the array holding entry i, cut at Len(), and the index
// of its first entry.
func (c *column[T]) Array(i int) (run []T, first int) {
	if uint(i) >= uint(c.n) {
		panic("fingerprint: column index out of range")
	}
	if i < c.nb {
		return c.base, 0
	}
	k, _ := c.locate(i - c.nb)
	first = c.nb + c.start(k)
	return c.chunks[k][:min(c.size(k), c.n-first)*c.w], first
}

// Span returns entries [i, i+n): the longest contiguous run that starts
// at i, stays in one array and ends by hi.
func (c *column[T]) Span(i, hi int) (run []T, n int) {
	run, first := c.Array(i)
	n = min(hi, first+len(run)/c.w) - i
	return run[(i-first)*c.w : (i-first+n)*c.w], n
}

// Len is the number of entries stored.
func (c *column[T]) Len() int { return c.n }

// Dim is the number of elements per entry.
func (c *column[T]) Dim() int { return c.w }

// get returns entry i of a column of width one.
func (c *column[T]) get(i int) T { return c.At(i)[0] }

// append stores one entry of c.w elements.
func (c *column[T]) append(v ...T) {
	k, off := c.locate(c.n - c.nb)
	if k == len(c.chunks) {
		c.chunks = append(c.chunks, make([]T, c.size(k)*c.w))
	}
	copy(c.chunks[k][off*c.w:], v)
	c.n++
}

// Prefix returns the column's first n entries over the same storage.
// The chunk table is capacity-clipped, so an append on either side
// grows its own table.
func (c *column[T]) Prefix(n int) column[T] {
	out := *c
	out.n, out.nb = n, min(n, c.nb)
	k := 0
	if n > out.nb {
		k, _ = c.locate(n - out.nb - 1)
		k++
	}
	out.base, out.chunks = c.base[:out.nb*c.w:out.nb*c.w], c.chunks[:k:k]
	return out
}

// unshare gives a prefix a last chunk of its own, so that its appends
// do not write into entries the column it was cut from has stored since.
// It copies only the prefix's own entries: the rest of the chunk may be
// under that column's writer right now.
func (c *column[T]) unshare() {
	if k := len(c.chunks); k > 0 {
		own := make([]T, c.size(k-1)*c.w)
		copy(own, c.chunks[k-1][:(c.n-c.nb-c.start(k-1))*c.w])
		c.chunks = append(slices.Clone(c.chunks[:k-1]), own)
	}
}

// bytes is the storage the column keeps resident, unfilled chunk space
// included, for elements of the given size.
func (c *column[T]) bytes(elem int) int64 {
	return int64(len(c.base)+c.start(len(c.chunks))*c.w) * int64(elem)
}
