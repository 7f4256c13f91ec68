package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sync/atomic"

	"caltrain/internal/f32le"
	"caltrain/internal/fingerprint"
)

// Load failure sentinels, shared with the other format loaders (see
// internal/fingerprint). Branch with errors.Is; the wrapped message
// carries the location detail.
var (
	// ErrVersionMismatch marks an index file written by an incompatible
	// format version.
	ErrVersionMismatch = fingerprint.ErrVersionMismatch
	// ErrCorrupt marks an index file that fails structural validation.
	ErrCorrupt = fingerprint.ErrCorrupt
	// ErrForeignIndex marks an index that is not its database's: one
	// whose entries are not the database's first ones, by Digest —
	// another database's, or more entries than the database has — or
	// whose labels' counts are not theirs.
	ErrForeignIndex = errors.New("index: not the database's index")
)

// Binary index format, little-endian. A file holds what training
// computed and nothing the database holds: an entry is its place in its
// class, the position p whose database index is db.ClassIndex(y)[p].
//
//	"CTIX" | version u8 | kind u8 | dim u32 | nlabels u32 |
//	n u32 | crc u32 (the binding: db.Digest(n) of the n entries indexed)
//	per label (ascending): label i32 | count u32
//	IVF only: nprobe u32, then per label: nlist u32 |
//	          nlist×dim × f32 centroids | nlist × (len u32 | len × pos u32)
//	IVFPQ only: nprobe u32 | m u32, then per label: nlist u32 |
//	          nlist×dim × f32 centroids | m×256×(dim/m) × f32 codebook |
//	          nlist × (len u32 | len × pos u32) | count×m code bytes, list by list
const (
	ixMagic   = "CTIX"
	ixVersion = 2
	kindFlat  = 0
	kindIVF   = 1
	kindIVFPQ = 2
)

const (
	maxPlausible    = 100_000_000
	maxPlausibleDim = 1_000_000
	// maxPlausibleElems bounds any one allocation's float32 count (16GB)
	// so hostile headers error instead of panicking the loader.
	maxPlausibleElems = 4_000_000_000
	// ixBufSize is the buffer Save writes and Load reads a file through:
	// every record is at most a word, and arrays come in runs of it.
	ixBufSize = 1 << 16
)

// Save serializes a Flat, IVF or IVFPQ index so it persists alongside
// LinkageDB.Save; Load reads it back over that database. The file binds
// itself to the entries the index holds with their database's Digest.
func Save(w io.Writer, s Searcher) error {
	var kind byte
	var counts map[int]int
	var ivf *IVF
	var pq *IVFPQ
	var v *view
	switch x := s.(type) {
	case *Flat:
		// Hold the read lock for the whole dump so a concurrent Append
		// cannot tear the snapshot mid-bucket.
		x.mu.RLock()
		defer x.mu.RUnlock()
		kind, v, counts = kindFlat, &x.view, make(map[int]int, len(x.buckets))
		for y, b := range x.buckets {
			counts[y] = len(b.idx)
		}
	case *IVF:
		x.mu.RLock()
		defer x.mu.RUnlock()
		kind, v, ivf, counts = kindIVF, &x.view, x, make(map[int]int, len(x.labels))
		for y, c := range x.labels {
			counts[y] = len(c.b.idx)
		}
	case *IVFPQ:
		x.mu.RLock()
		defer x.mu.RUnlock()
		kind, v, pq, counts = kindIVFPQ, &x.view, x, make(map[int]int, len(x.labels))
		for y, c := range x.labels {
			counts[y] = c.n
		}
	default:
		return fmt.Errorf("index: save: unsupported backend %q", s.Kind())
	}
	e := &encoder{bw: bufio.NewWriterSize(w, ixBufSize)}
	e.rec = append(e.rec, ixMagic...)
	e.rec = append(e.rec, ixVersion, kind)
	e.rec = binary.LittleEndian.AppendUint32(e.rec, uint32(v.dim))
	e.u32(uint32(len(counts)))
	e.u32(uint32(v.total))
	e.u32(v.db.Digest(v.total))
	labels := slices.Sorted(maps.Keys(counts))
	for _, y := range labels {
		e.u32(uint32(int32(y)))
		e.u32(uint32(counts[y]))
	}
	switch {
	case ivf != nil:
		e.ivf(ivf, labels)
	case pq != nil:
		e.ivfpq(pq, labels)
	}
	if err := e.bw.Flush(); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// encoder is Save's state: the buffered writer, whose first error
// Flush reports, and the one record buffer every field is built in
// before it is written.
type encoder struct {
	bw    *bufio.Writer
	rec   []byte
	words []byte // a big-endian host's encoding of a list
}

// write hands the record built so far to the writer and starts the next.
func (e *encoder) write() {
	e.bw.Write(e.rec)
	e.rec = e.rec[:0]
}

func (e *encoder) u32(v uint32) {
	e.rec = binary.LittleEndian.AppendUint32(e.rec, v)
	e.write()
}

func (e *encoder) floats(v []float32) {
	e.rec = f32le.Append(e.rec, v)
	e.write()
}

// positions writes one inverted list: its length, then its positions.
func (e *encoder) positions(list []int32) {
	e.rec = binary.LittleEndian.AppendUint32(e.rec, uint32(len(list)))
	e.rec = append(e.rec, f32le.Words(list, &e.words)...)
	e.write()
}

// ivf writes the IVF body: each label's centroids and inverted lists.
func (e *encoder) ivf(x *IVF, labels []int) {
	e.u32(uint32(x.Nprobe()))
	for _, y := range labels {
		c := x.labels[y]
		e.u32(uint32(c.nlist))
		e.floats(c.centroids)
		for _, list := range c.lists {
			e.positions(list)
		}
	}
}

// ivfpq writes the IVFPQ body: the search knobs, then per label the
// coarse centroids, PQ codebook, inverted lists of class positions, and
// the lists' codes.
func (e *encoder) ivfpq(x *IVFPQ, labels []int) {
	e.u32(uint32(x.Nprobe()))
	e.u32(uint32(x.m))
	var book [pqKs]float32 // a run of the codebook in file order
	var members, pos []int32
	for _, y := range labels {
		c := x.labels[y]
		e.u32(uint32(c.nlist))
		e.floats(c.centroids)
		for j := 0; j < len(c.book.centroids); j += len(book) {
			run := book[:min(len(book), len(c.book.centroids)-j)]
			for t := range run {
				run[t] = c.book.centroids[c.book.slot(j+t)]
			}
			e.floats(run)
		}
		// A class's database indices ascend: an entry's position is where
		// its index sits among them.
		members = x.db.ClassIndexInto(members, y)
		for _, l := range c.lists {
			pos = resize(pos, len(l.idx))
			for k, i := range l.idx {
				p, _ := slices.BinarySearch(members, i)
				pos[k] = int32(p)
			}
			e.positions(pos)
		}
		for _, l := range c.lists {
			e.rec = append(e.rec, l.codes...)
			e.write()
		}
	}
}

// Load reads an index written by Save as the index of db, in the state
// training over db leaves one in: a *Flat, *IVF or *IVFPQ that resolves
// every entry through db and keeps nothing db already holds. Flat and IVF
// buckets are the trainers' own (buildBucket), views of db's class
// rows; the file supplies only what training computes — IVF's
// centroids and lists, IVFPQ's centroids, codebooks and codes.
//
// The file must be bound to db: its n entries db's first n, by Digest,
// and each label's count the entries of that label among them. Each
// inverted list's positions must partition its class. Those db holds
// past the n are then appended in database order (catchUp), so a file
// saved before its database grew catches up.
//
// The stream is read through one buffer of ixBufSize bytes, each word
// in place and each array in runs of as many as the buffer holds.
//
// An index that is not db's yields ErrForeignIndex, another
// dimensionality fingerprint.ErrDimMismatch, malformed input ErrCorrupt
// or ErrVersionMismatch — never a panic. When r can say how long it is
// (a file, a bytes.Reader), every count the stream claims is held to the
// bytes it would need before anything is allocated for it, so a short
// hostile file costs memory in proportion to its own size, not to what
// its header says.
func Load(r io.Reader, db *fingerprint.DB) (Searcher, error) {
	left := int64(math.MaxInt64)
	if n, ok := fingerprint.BytesLeft(r); ok {
		left = n
	}
	var head [4 + 1 + 1 + 4 + 4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("index: load: %w: %w", err, ErrCorrupt)
	}
	if string(head[:4]) != ixMagic {
		return nil, fmt.Errorf("index: load: bad magic %q: %w", head[:4], ErrCorrupt)
	}
	if head[4] != ixVersion {
		return nil, fmt.Errorf("index: load: unsupported version %d: %w", head[4], ErrVersionMismatch)
	}
	kind := head[5]
	dim := int(binary.LittleEndian.Uint32(head[6:]))
	nlabels := int(binary.LittleEndian.Uint32(head[10:]))
	holds := func(count, each int) bool { return int64(count)*int64(each) <= left }
	if dim <= 0 || dim > maxPlausibleDim || nlabels < 0 || nlabels > maxPlausible || !holds(nlabels, 8) {
		return nil, fmt.Errorf("index: load: implausible header (dim %d, labels %d): %w", dim, nlabels, ErrCorrupt)
	}
	if kind > kindIVFPQ {
		return nil, fmt.Errorf("index: load: unknown kind %d: %w", kind, ErrCorrupt)
	}
	if dim != db.Dim() {
		return nil, fmt.Errorf("%w: database has %d dims, index %d", fingerprint.ErrDimMismatch, db.Dim(), dim)
	}
	ld := &loader{br: bufio.NewReaderSize(r, ixBufSize), holds: holds, dim: dim, db: db}
	n, crc := int(ld.u32()), ld.u32()
	if err := ld.fail(nil); err != nil {
		return nil, err
	}
	if kind != kindFlat && !holds(n, 4) {
		return nil, fmt.Errorf("index: load: %d entries' positions overrun the stream: %w: %w", n, io.ErrUnexpectedEOF, ErrCorrupt)
	}
	labels, buckets, err := ld.counts(nlabels, n)
	if err != nil {
		return nil, err
	}
	if db.Digest(n) != crc {
		return nil, fmt.Errorf("%w: the database's first %d entries are not the ones it was saved over", ErrForeignIndex, n)
	}
	var s Appender
	switch kind {
	case kindFlat:
		s = &Flat{view: view{dim: dim, total: n, db: db}, buckets: buckets}
	case kindIVF:
		s, err = ld.ivf(labels, buckets)
	default:
		s, err = ld.ivfpq(labels, buckets)
	}
	if err == nil {
		err = ld.fail(nil)
	}
	if err == nil {
		err = catchUp(s, db)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// catchUp appends to s, in database order, the entries db holds past
// s's: an index saved before its database grew — a snapshot that landed
// the database file but not the index file — catches up instead of
// being refused.
func catchUp(s Appender, db *fingerprint.DB) error {
	for i := s.Len(); i < db.Len(); i++ {
		if err := s.Append(i); err != nil {
			return fmt.Errorf("index: catching up entry %d: %w", i, err)
		}
	}
	return nil
}

// loader is Load's state: the stream, read in place. A read that fails
// is sticky: err keeps it, and every read after it yields zeros, so a
// truncated stream runs out through empty loops instead of being
// checked at every field.
type loader struct {
	br    *bufio.Reader
	err   error
	used  int                        // bytes of the last record handed out, consumed by the next read
	zeros []byte                     // what a read yields once one has failed
	holds func(count, each int) bool // whether the stream can hold count records of each bytes
	dim   int
	db    *fingerprint.DB
	seen  []bool // the class positions a label's lists have covered
}

// peek returns the next n bytes of the stream, at most the buffer's
// size, in place in the reader's buffer, after consuming the record
// handed out before them; they stay valid until the next read.
func (ld *loader) peek(n int) []byte {
	ld.consume()
	if ld.err == nil {
		b, err := ld.br.Peek(n)
		if err == nil {
			return b
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		ld.err = fmt.Errorf("index: load: %w: %w", err, ErrCorrupt)
	}
	ld.zeros = resize(ld.zeros, n)
	clear(ld.zeros)
	return ld.zeros
}

// consume drops the record handed out last from the reader's buffer.
func (ld *loader) consume() {
	_, _ = ld.br.Discard(ld.used) // cannot fail: Peek buffered these bytes
	ld.used = 0
}

// record is peek of a whole record: the next read consumes it.
func (ld *loader) record(n int) []byte {
	b := ld.peek(n)
	if ld.err == nil {
		ld.used = n
	}
	return b
}

// run returns the next of count items of each bytes, as many as the
// buffer holds: a caller reads count items in one run or a few. While
// the buffer still holds an item, the run ends where the buffered bytes
// do, so a long array never makes the reader refill a nearly full
// buffer with a short read.
func (ld *loader) run(count, each int) []byte {
	ld.consume()
	k := min(count, ld.br.Size()/each)
	if have := ld.br.Buffered() / each; have > 0 {
		k = min(k, have)
	}
	return ld.record(k * each)
}

func (ld *loader) u32() uint32 { return binary.LittleEndian.Uint32(ld.record(4)) }

// fail is the error a check on the stream reports: err, unless a read
// failed first — the check then saw zeros, and the failed read is the
// error.
func (ld *loader) fail(err error) error {
	if ld.err != nil {
		return ld.err
	}
	return err
}

// floats fills dst from the stream.
func (ld *loader) floats(dst []float32) {
	for len(dst) > 0 {
		b := ld.run(len(dst), 4)
		f32le.Decode(dst[:len(b)/4], b)
		dst = dst[len(b)/4:]
	}
}

// nprobe reads the search knob both coarse backends carry.
func (ld *loader) nprobe(into *atomic.Int32) error {
	np := ld.u32()
	if np == 0 || np > maxPlausible {
		return ld.fail(fmt.Errorf("index: load: implausible nprobe %d: %w", np, ErrCorrupt))
	}
	into.Store(int32(np))
	return nil
}

// counts reads the labels and their counts, and returns, per label, the
// bucket buildBucket makes of db's class cut to its count: the class's
// first entries, which must be exactly those among db's first n. The
// counts then add up to n, which db therefore holds.
func (ld *loader) counts(nlabels, n int) ([]int, map[int]*bucket, error) {
	labels := make([]int, nlabels)
	buckets := make(map[int]*bucket, nlabels)
	total := 0
	for li := range labels {
		y, count := int(int32(ld.u32())), int(ld.u32())
		if count == 0 {
			return nil, nil, ld.fail(fmt.Errorf("index: load: label %d holds no entries: %w", y, ErrCorrupt))
		}
		if _, dup := buckets[y]; dup {
			return nil, nil, ld.fail(fmt.Errorf("index: load: duplicate label %d: %w", y, ErrCorrupt))
		}
		b := buildBucket(ld.db, y, nil)
		if count > len(b.idx) {
			return nil, nil, ld.fail(fmt.Errorf("%w: label %d holds %d entries, the database %d", ErrForeignIndex, y, count, len(b.idx)))
		}
		if int(b.idx[count-1]) >= n || count < len(b.idx) && int(b.idx[count]) < n {
			return nil, nil, ld.fail(fmt.Errorf("%w: label %d's %d entries are not its share of the database's first %d", ErrForeignIndex, y, count, n))
		}
		b.clip(count)
		labels[li], buckets[y] = y, b
		total += count
	}
	if total != n {
		return nil, nil, ld.fail(fmt.Errorf("%w: its labels hold %d entries, not the %d it indexes", ErrForeignIndex, total, n))
	}
	return labels, buckets, nil
}

// lists reads a label's nlist inverted lists of class positions into
// one arena of count, each list a capacity-clipped run of it (as
// invertedLists lays them out), checking that they partition the class:
// every position in exactly one list, or searches would silently drop
// (or double-count) entries.
func (ld *loader) lists(y, nlist, count int) ([][]int32, error) {
	ld.seen = resize(ld.seen, count)
	clear(ld.seen)
	arena, lists := make([]int32, count), make([][]int32, nlist)
	covered := 0
	for ci := range lists {
		ln := int(ld.u32())
		if ln > count-covered {
			return nil, ld.fail(fmt.Errorf("index: load: lists of label %d hold more than its %d entries: %w", y, count, ErrCorrupt))
		}
		list := arena[covered : covered+ln : covered+ln]
		for p := 0; p < ln; {
			for run := ld.run(ln-p, 4); len(run) > 0; run, p = run[4:], p+1 {
				pv := int(binary.LittleEndian.Uint32(run))
				if pv >= count || ld.seen[pv] {
					return nil, ld.fail(fmt.Errorf("index: load: position %d of label %d out of range or in two lists: %w", pv, y, ErrCorrupt))
				}
				ld.seen[pv] = true
				list[p] = int32(pv)
			}
		}
		covered += ln
		lists[ci] = list
	}
	if covered != count {
		return nil, ld.fail(fmt.Errorf("index: load: lists of label %d cover %d of %d entries: %w", y, covered, count, ErrCorrupt))
	}
	return lists, nil
}

// coarse reads a label's list count and its coarse centroids.
func (ld *loader) coarse() (coarse, error) {
	dim := ld.dim
	nlist := int(ld.u32())
	if nlist <= 0 || nlist > maxPlausible || nlist*dim > maxPlausibleElems || !ld.holds(nlist, 4*dim+4) {
		return coarse{}, ld.fail(fmt.Errorf("index: load: implausible nlist %d (dim %d): %w", nlist, dim, ErrCorrupt))
	}
	centroids := make([]float32, nlist*dim)
	ld.floats(centroids)
	return newCoarse(centroids, nlist, dim), nil
}

// ivf reads the IVF body: each label's centroids and inverted lists over
// its bucket.
func (ld *loader) ivf(labels []int, buckets map[int]*bucket) (Appender, error) {
	x := &IVF{labels: make(map[int]*ivfClass, len(labels))}
	x.dim, x.db = ld.dim, ld.db
	if err := ld.nprobe(&x.nprobe); err != nil {
		return nil, err
	}
	for _, y := range labels {
		b := buckets[y]
		co, err := ld.coarse()
		if err != nil {
			return nil, err
		}
		lists, err := ld.lists(y, co.nlist, len(b.idx))
		if err != nil {
			return nil, err
		}
		x.labels[y] = &ivfClass{coarse: co, b: b, lists: lists}
		x.total += len(b.idx)
	}
	return x, nil
}

// ivfpq reads the IVFPQ body: per label the coarse centroids, the
// codebook, the inverted lists, each entry's position resolved to its
// database index through the label's bucket, and their codes.
func (ld *loader) ivfpq(labels []int, buckets map[int]*bucket) (Appender, error) {
	dim := ld.dim
	x := &IVFPQ{labels: make(map[int]*ivfpqClass, len(labels))}
	x.dim, x.db = dim, ld.db
	if err := ld.nprobe(&x.nprobe); err != nil {
		return nil, err
	}
	m := int(ld.u32())
	if m < 1 || m > dim || dim%m != 0 {
		return nil, ld.fail(fmt.Errorf("index: load: IVFPQ m=%d does not divide dim %d: %w", m, dim, ErrCorrupt))
	}
	x.m = m
	for _, y := range labels {
		b := buckets[y]
		count := len(b.idx)
		// Besides its lists a label carries the codebook (m·256·dsub
		// floats), and its entries their codes.
		if !ld.holds(dim, 4*pqKs) || !ld.holds(count, m) {
			return nil, ld.fail(fmt.Errorf("index: load: label %d's codebook and codes overrun the stream: %w: %w", y, io.ErrUnexpectedEOF, ErrCorrupt))
		}
		co, err := ld.coarse()
		if err != nil {
			return nil, err
		}
		c := &ivfpqClass{coarse: co, x: x, book: newCodebook(m, dim/m), n: count}
		var book [pqKs]float32 // a run of the codebook in file order
		for j := 0; j < len(c.book.centroids); {
			r := ld.run(min(len(book), len(c.book.centroids)-j), 4)
			f32le.Decode(book[:len(r)/4], r)
			for _, v := range book[:len(r)/4] {
				c.book.centroids[c.book.slot(j)] = v
				j++
			}
		}
		lists, err := ld.lists(y, co.nlist, count)
		if err != nil {
			return nil, err
		}
		codes := make([]byte, count*m)
		for k := 0; k < len(codes); {
			k += copy(codes[k:], ld.run(len(codes)-k, 1))
		}
		held, start := make([]pqList, co.nlist), 0
		c.lists = make([]*pqList, co.nlist)
		for ci, list := range lists {
			for k, p := range list {
				list[k] = b.idx[p]
			}
			end := start + len(list)
			held[ci] = pqList{idx: list, codes: codes[start*m : end*m : end*m]}
			c.lists[ci], start = &held[ci], end
		}
		x.labels[y] = c
		x.total += count
	}
	return x, nil
}
