package index

import (
	"bufio"
	"encoding/binary"
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
)

// Binary index format, little-endian, mirroring LinkageDB.Save's framing:
//
//	"CTIX" | version u8 | kind u8 | dim u32 | nlabels u32
//	per label (ascending): label i32 | n u32 | n × entry
//	entry: idx u32 | srclen u16 | src | hash[32] | dim × f32
//	IVF only: nprobe u32, then per label: nlist u32 |
//	          nlist×dim × f32 centroids | nlist × (len u32 | len × pos u32)
//
// IVFPQ copies no float vectors, so after the same header its body
// replaces the per-label entry section entirely:
//
//	nprobe u32 | m u32
//	per label (ascending): label i32 | nlist u32 |
//	  nlist×dim × f32 centroids | m×256×(dim/m) × f32 codebook |
//	  nlist × (len u32 | len × (idx u32 | srclen u16 | src | hash[32] | m code bytes))
const (
	ixMagic   = "CTIX"
	ixVersion = 1
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
)

// recordBound is the longest record a CTIX file of dimension dim holds —
// an entry with the longest source the framing carries, and its row —
// and the size of the one buffer Save writes through and Load reads
// every record from in place.
func recordBound(dim int) int { return 4 + 2 + math.MaxUint16 + 32 + 4*dim }

// Save serializes a Flat, IVF or IVFPQ index so it persists alongside
// LinkageDB.Save; Load reads it back over that database. Each entry's
// record is built from the database's columns (Records.Append) and
// written through one buffer of recordBound bytes.
func Save(w io.Writer, s Searcher) error {
	var kind byte
	var buckets map[int]*bucket
	var ivf *IVF
	var pq *IVFPQ
	var db *fingerprint.DB
	switch x := s.(type) {
	case *Flat:
		// Hold the read lock for the whole dump so a concurrent Append
		// cannot tear the snapshot mid-bucket.
		x.mu.RLock()
		defer x.mu.RUnlock()
		kind, buckets, db = kindFlat, x.buckets, x.db
	case *IVF:
		x.mu.RLock()
		defer x.mu.RUnlock()
		kind, ivf, db = kindIVF, x, x.db
		buckets = make(map[int]*bucket, len(x.labels))
		for y, c := range x.labels {
			buckets[y] = c.b
		}
	case *IVFPQ:
		x.mu.RLock()
		defer x.mu.RUnlock()
		kind, pq, db = kindIVFPQ, x, x.db
	default:
		return fmt.Errorf("index: save: unsupported backend %q", s.Kind())
	}
	dim := s.Dim()
	e := &encoder{bw: bufio.NewWriterSize(w, recordBound(dim)), recs: db.Records()}
	e.rec = append(e.rec, ixMagic...)
	e.rec = append(e.rec, ixVersion, kind)
	e.rec = binary.LittleEndian.AppendUint32(e.rec, uint32(dim))
	if pq != nil {
		e.u32(uint32(len(pq.labels)))
		e.ivfpq(pq)
	} else {
		e.u32(uint32(len(buckets)))
		e.buckets(buckets, ivf)
	}
	if err := e.bw.Flush(); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// encoder is Save's state: the buffered writer, whose first error
// Flush reports, and the one record buffer every field and entry is
// built in before it is written.
type encoder struct {
	bw   *bufio.Writer
	recs fingerprint.Records
	rec  []byte
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

// entry writes what every saved entry is — idx u32 | srclen u16 | src |
// hash[32], then a Flat or IVF entry's row or an IVFPQ entry's codes —
// for database entry idx.
func (e *encoder) entry(idx int32, row bool, codes []byte) {
	e.rec = binary.LittleEndian.AppendUint32(e.rec, uint32(idx))
	e.rec = e.recs.Append(e.rec, int(idx), row)
	e.rec = append(e.rec, codes...)
	e.write()
}

// buckets writes the Flat and IVF body: per label the entries with their
// rows, then for IVF each label's centroids and inverted lists.
func (e *encoder) buckets(buckets map[int]*bucket, ivf *IVF) {
	labels := slices.Sorted(maps.Keys(buckets))
	for _, y := range labels {
		b := buckets[y]
		e.u32(uint32(int32(y)))
		e.u32(uint32(len(b.idx)))
		for _, i := range b.idx {
			e.entry(i, true, nil)
		}
	}
	if ivf == nil {
		return
	}
	e.u32(uint32(ivf.Nprobe()))
	for _, y := range labels {
		c := ivf.labels[y]
		e.u32(uint32(c.nlist))
		e.floats(c.centroids)
		for _, list := range c.lists {
			e.rec = binary.LittleEndian.AppendUint32(e.rec, uint32(len(list)))
			for _, pos := range list {
				e.rec = binary.LittleEndian.AppendUint32(e.rec, uint32(pos))
			}
			e.write()
		}
	}
}

// ivfpq writes the IVFPQ body: the search knobs, then per label the
// coarse centroids, PQ codebook, and code-carrying inverted lists.
func (e *encoder) ivfpq(x *IVFPQ) {
	e.u32(uint32(x.Nprobe()))
	e.u32(uint32(x.m))
	var book [pqKs]float32 // a run of the codebook in file order
	for _, y := range slices.Sorted(maps.Keys(x.labels)) {
		c := x.labels[y]
		e.u32(uint32(int32(y)))
		e.u32(uint32(c.nlist))
		e.floats(c.centroids)
		for j := 0; j < len(c.book.centroids); j += len(book) {
			run := book[:min(len(book), len(c.book.centroids)-j)]
			for t := range run {
				run[t] = c.book.centroids[c.book.slot(j+t)]
			}
			e.floats(run)
		}
		for _, l := range c.lists {
			e.u32(uint32(len(l.idx)))
			for k, i := range l.idx {
				e.entry(i, false, l.codes[k*x.m:(k+1)*x.m])
			}
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
// Every entry is checked against db as it is read (entryCheck), and a
// Flat or IVF entry must sit where db's class puts it. The entries must
// be db's first ones; those db holds past them are then appended in
// database order, as Attach does, so a file saved before its database
// grew catches up.
//
// Each record is read once, in place in a reader sized after the header
// to hold the longest record the dimension allows (recordBound): an
// entry's identity and row are compared with db's columns as the file
// stores them (Records.Holds), and an inverted list's positions or a float
// array come in runs of as many as the buffer holds.
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
	ld := &loader{
		br:    bufio.NewReaderSize(r, recordBound(dim)),
		holds: holds,
		dim:   dim,
		db:    db,
		check: newEntryCheck(db),
	}
	var s Appender
	var err error
	if kind == kindIVFPQ {
		s, err = ld.ivfpq(nlabels)
	} else {
		s, err = ld.buckets(kind, nlabels)
	}
	if err == nil {
		err = ld.fail(ld.check.prefix())
	}
	if err == nil {
		err = catchUp(s, db)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// loader is Load's state: the stream, read in place, and the check
// every entry passes. A read that fails is sticky: err keeps it, and
// every read after it yields zeros, so a truncated stream runs out
// through empty loops instead of being checked at every field.
type loader struct {
	br    *bufio.Reader
	err   error
	used  int                        // bytes of the last record handed out, consumed by the next read
	zeros []byte                     // what a read yields once one has failed
	holds func(count, each int) bool // whether the stream can hold count records of each bytes
	dim   int
	db    *fingerprint.DB
	check *entryCheck
	seen  []bool // the bucket positions an IVF label's lists have covered
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

// readIdentity reads what every saved entry starts with — idx u32 |
// srclen u16 | src | hash[32] — and the rest bytes that follow it (a row,
// or codes), peeking the head for the record's length and then the whole
// record. The slices view the reader's buffer until the next read.
func (ld *loader) readIdentity(rest int) (idx int, src, hash, tail []byte) {
	slen := int(binary.LittleEndian.Uint16(ld.peek(4 + 2)[4:]))
	rec := ld.record(4 + 2 + slen + 32 + rest)
	return int(binary.LittleEndian.Uint32(rec)), rec[6 : 6+slen], rec[6+slen : 6+slen+32], rec[6+slen+32:]
}

// buckets reads the Flat and IVF body: per label the entries, each
// checked against the bucket buildBucket makes of db's class, then for
// IVF each label's centroids and inverted lists.
func (ld *loader) buckets(kind byte, nlabels int) (Appender, error) {
	dim := ld.dim
	labels := make([]int, nlabels)
	buckets := make(map[int]*bucket, nlabels)
	total := 0
	for li := range labels {
		y, n := int(int32(ld.u32())), int(ld.u32())
		if n > maxPlausible || !ld.holds(n, 4+2+32+4*dim) {
			return nil, ld.fail(fmt.Errorf("index: load: implausible entry count %d (dim %d): %w", n, dim, ErrCorrupt))
		}
		if _, dup := buckets[y]; dup {
			return nil, ld.fail(fmt.Errorf("index: load: duplicate label %d: %w", y, ErrCorrupt))
		}
		b := buildBucket(ld.db, y, nil)
		if n > len(b.idx) {
			return nil, ld.fail(fmt.Errorf("%w: label %d holds %d entries, the database %d", ErrForeignIndex, y, n, len(b.idx)))
		}
		for p := 0; p < n; p++ {
			idx, src, hash, row := ld.readIdentity(4 * dim)
			if idx != int(b.idx[p]) {
				return nil, ld.fail(fmt.Errorf("%w: label %d's entry %d is %d, the database's %d", ErrForeignIndex, y, p, idx, b.idx[p]))
			}
			if err := ld.check.entry(idx, y, src, hash, row); err != nil {
				return nil, ld.fail(err)
			}
		}
		b.clip(n)
		labels[li], buckets[y] = y, b
		total += n
	}
	if kind == kindFlat {
		return &Flat{view: view{dim: dim, total: total, db: ld.db}, buckets: buckets}, nil
	}
	x := &IVF{labels: make(map[int]*ivfClass, nlabels)}
	x.dim, x.total, x.db = dim, total, ld.db
	if err := ld.nprobe(&x.nprobe); err != nil {
		return nil, err
	}
	for _, y := range labels {
		b := buckets[y]
		n := len(b.idx)
		nlist := int(ld.u32())
		if nlist <= 0 || nlist > maxPlausible || nlist*dim > maxPlausibleElems || !ld.holds(nlist, 4*dim+4) {
			return nil, ld.fail(fmt.Errorf("index: load: implausible nlist %d (dim %d): %w", nlist, dim, ErrCorrupt))
		}
		centroids := make([]float32, nlist*dim)
		ld.floats(centroids)
		c := &ivfClass{coarse: newCoarse(centroids, nlist, dim), b: b, lists: make([][]int32, nlist)}
		// The inverted lists must partition the class: every bucket
		// position in exactly one list, or searches would silently drop
		// (or double-count) entries.
		ld.seen = resize(ld.seen, n)
		clear(ld.seen)
		covered := 0
		for ci := range c.lists {
			ln := int(ld.u32())
			if ln > n {
				return nil, ld.fail(fmt.Errorf("index: load: list %d/%d longer than class (%d > %d): %w", y, ci, ln, n, ErrCorrupt))
			}
			list := make([]int32, ln)
			for p := 0; p < ln; {
				for run := ld.run(ln-p, 4); len(run) > 0; run, p = run[4:], p+1 {
					pv := int(binary.LittleEndian.Uint32(run))
					if pv >= n || ld.seen[pv] {
						return nil, ld.fail(fmt.Errorf("index: load: position %d of label %d out of range or in two lists: %w", pv, y, ErrCorrupt))
					}
					ld.seen[pv] = true
					list[p] = int32(pv)
				}
			}
			covered += ln
			c.lists[ci] = list
		}
		if covered != n {
			return nil, ld.fail(fmt.Errorf("index: load: lists of label %d cover %d of %d entries: %w", y, covered, n, ErrCorrupt))
		}
		x.labels[y] = c
	}
	return x, nil
}

// ivfpq reads the IVFPQ body: per label the coarse centroids, the
// codebook and the code-carrying inverted lists, each entry checked
// against db as it is read.
func (ld *loader) ivfpq(nlabels int) (Appender, error) {
	dim := ld.dim
	x := &IVFPQ{labels: make(map[int]*ivfpqClass, nlabels)}
	x.dim, x.db = dim, ld.db
	if err := ld.nprobe(&x.nprobe); err != nil {
		return nil, err
	}
	m := int(ld.u32())
	if m < 1 || m > dim || dim%m != 0 {
		return nil, ld.fail(fmt.Errorf("index: load: IVFPQ m=%d does not divide dim %d: %w", m, dim, ErrCorrupt))
	}
	x.m = m
	for li := 0; li < nlabels; li++ {
		y, nlist := int(int32(ld.u32())), int(ld.u32())
		if _, dup := x.labels[y]; dup {
			return nil, ld.fail(fmt.Errorf("index: load: duplicate label %d: %w", y, ErrCorrupt))
		}
		// Besides its lists a label carries the codebook: m·256·dsub floats.
		if nlist <= 0 || nlist > maxPlausible || nlist*dim > maxPlausibleElems || !ld.holds(nlist, 4*dim+4) || !ld.holds(dim, 4*pqKs) {
			return nil, ld.fail(fmt.Errorf("index: load: implausible nlist %d (dim %d): %w", nlist, dim, ErrCorrupt))
		}
		centroids := make([]float32, nlist*dim)
		ld.floats(centroids)
		c := &ivfpqClass{
			coarse: newCoarse(centroids, nlist, dim),
			x:      x,
			book:   newCodebook(m, dim/m),
			lists:  make([]*pqList, nlist),
		}
		var book [pqKs]float32 // a run of the codebook in file order
		for j := 0; j < len(c.book.centroids); {
			b := ld.run(min(len(book), len(c.book.centroids)-j), 4)
			f32le.Decode(book[:len(b)/4], b)
			for _, v := range book[:len(b)/4] {
				c.book.centroids[c.book.slot(j)] = v
				j++
			}
		}
		for ci := range c.lists {
			n := int(ld.u32())
			if n > maxPlausible || n*m > maxPlausibleElems || !ld.holds(n, 4+2+32+m) {
				return nil, ld.fail(fmt.Errorf("index: load: implausible list length %d (m %d): %w", n, m, ErrCorrupt))
			}
			l := &pqList{codes: make([]byte, n*m), idx: make([]int32, n)}
			for i := range l.idx {
				idx, src, hash, code := ld.readIdentity(m)
				if err := ld.check.entry(idx, y, src, hash, nil); err != nil {
					return nil, ld.fail(err)
				}
				l.idx[i] = int32(idx)
				copy(l.codes[i*m:], code)
			}
			c.lists[ci] = l
			c.n += n
			x.total += n
		}
		x.labels[y] = c
	}
	return x, nil
}
