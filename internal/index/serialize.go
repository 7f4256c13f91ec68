package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
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

// Save serializes a Flat, IVF or IVFPQ index so it persists alongside
// LinkageDB.Save; Load reads it back over that database.
func Save(w io.Writer, s Searcher) error {
	bw := bufio.NewWriter(w)
	var kind byte
	var buckets map[int]*bucket
	var ivf *IVF
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
		return saveIVFPQ(bw, x)
	default:
		return fmt.Errorf("index: save: unsupported backend %q", s.Kind())
	}
	dim := s.Dim()
	if _, err := bw.WriteString(ixMagic); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	bw.WriteByte(ixVersion)
	bw.WriteByte(kind)
	labels := make([]int, 0, len(buckets))
	for y := range buckets {
		labels = append(labels, y)
	}
	sort.Ints(labels)
	var u32 [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		bw.Write(u32[:])
	}
	put(uint32(dim))
	put(uint32(len(labels)))
	var rec []byte
	for _, y := range labels {
		b := buckets[y]
		put(uint32(int32(y)))
		put(uint32(len(b.idx)))
		for _, i := range b.idx {
			l := db.Entry(int(i))
			var err error
			if rec, err = appendIdentity(rec[:0], i, l); err != nil {
				return err
			}
			rec = f32le.Append(rec, l.F)
			bw.Write(rec)
		}
	}
	if ivf != nil {
		put(uint32(ivf.Nprobe()))
		for _, y := range labels {
			c := ivf.labels[y]
			put(uint32(c.nlist))
			rec = f32le.Append(rec[:0], c.centroids)
			bw.Write(rec)
			for _, list := range c.lists {
				put(uint32(len(list)))
				for _, pos := range list {
					put(uint32(pos))
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// appendIdentity appends what every saved entry starts with — idx u32 |
// srclen u16 | src | hash[32] — for database entry idx, l. rec is the
// caller's reused buffer: the hash is copied into it, never handed to
// the writer, which would move every one to the heap.
func appendIdentity(rec []byte, idx int32, l fingerprint.Linkage) ([]byte, error) {
	if len(l.S) > 65535 {
		return nil, fmt.Errorf("index: save: source %q… exceeds 65535 bytes", l.S[:32])
	}
	rec = binary.LittleEndian.AppendUint32(rec, uint32(idx))
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(l.S)))
	rec = append(rec, l.S...)
	return append(rec, l.H[:]...), nil
}

// saveIVFPQ writes the kindIVFPQ stream: header, search knobs, then per
// label the coarse centroids, PQ codebook, and code-carrying inverted
// lists. The caller holds the index read lock.
func saveIVFPQ(bw *bufio.Writer, x *IVFPQ) error {
	if _, err := bw.WriteString(ixMagic); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	bw.WriteByte(ixVersion)
	bw.WriteByte(kindIVFPQ)
	var u32 [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		bw.Write(u32[:])
	}
	put(uint32(x.dim))
	put(uint32(len(x.labels)))
	put(uint32(x.Nprobe()))
	put(uint32(x.m))
	labels := make([]int, 0, len(x.labels))
	for y := range x.labels {
		labels = append(labels, y)
	}
	sort.Ints(labels)
	var rec []byte
	for _, y := range labels {
		c := x.labels[y]
		put(uint32(int32(y)))
		put(uint32(c.nlist))
		rec = f32le.Append(rec[:0], c.centroids)
		bw.Write(rec)
		for i := range c.book.centroids {
			put(math.Float32bits(c.book.centroids[c.book.slot(i)]))
		}
		for _, l := range c.lists {
			put(uint32(len(l.idx)))
			for k, i := range l.idx {
				var err error
				if rec, err = appendIdentity(rec[:0], i, x.db.Entry(int(i))); err != nil {
					return err
				}
				bw.Write(rec)
				bw.Write(l.codes[k*x.m : (k+1)*x.m])
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
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
	ld := &loader{
		br:    bufio.NewReader(r),
		holds: func(count, each int) bool { return int64(count)*int64(each) <= left },
		db:    db,
	}
	head := ld.read(4 + 1 + 1 + 4 + 4)
	if ld.err != nil {
		return nil, ld.err
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
	if dim <= 0 || dim > maxPlausibleDim || nlabels < 0 || nlabels > maxPlausible || !ld.holds(nlabels, 8) {
		return nil, fmt.Errorf("index: load: implausible header (dim %d, labels %d): %w", dim, nlabels, ErrCorrupt)
	}
	if kind > kindIVFPQ {
		return nil, fmt.Errorf("index: load: unknown kind %d: %w", kind, ErrCorrupt)
	}
	if dim != db.Dim() {
		return nil, fmt.Errorf("%w: database has %d dims, index %d", fingerprint.ErrDimMismatch, db.Dim(), dim)
	}
	ld.dim, ld.check = dim, newEntryCheck(db)
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

// loader is Load's state: the stream, the one record buffer every field
// and entry is read through, and the check every entry passes. A read
// that fails is sticky: err keeps it, and every read after it yields
// zeros, so a truncated stream runs out through empty loops instead of
// being checked at every field.
type loader struct {
	br    *bufio.Reader
	err   error
	holds func(count, each int) bool // whether the stream can hold count records of each bytes
	dim   int
	db    *fingerprint.DB
	check *entryCheck
	rec   []byte
	row   []float32 // a Flat or IVF entry's row, decoded from rec
	seen  []bool    // the bucket positions an IVF label's lists have covered
}

// read returns the next n bytes of the stream, in the record buffer.
func (ld *loader) read(n int) []byte {
	ld.rec = resize(ld.rec, n)
	if ld.err == nil {
		if _, err := io.ReadFull(ld.br, ld.rec); err != nil {
			ld.err = fmt.Errorf("index: load: %w: %w", err, ErrCorrupt)
		}
	}
	if ld.err != nil {
		clear(ld.rec)
	}
	return ld.rec
}

func (ld *loader) u32() uint32 { return binary.LittleEndian.Uint32(ld.read(4)) }

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
func (ld *loader) floats(dst []float32) { f32le.Decode(dst, ld.read(4*len(dst))) }

// nprobe reads the search knob both coarse backends carry.
func (ld *loader) nprobe(into *atomic.Int32) error {
	np := ld.u32()
	if np == 0 || np > maxPlausible {
		return ld.fail(fmt.Errorf("index: load: implausible nprobe %d: %w", np, ErrCorrupt))
	}
	into.Store(int32(np))
	return nil
}

// readIdentity reads what every saved entry starts with — the mirror of
// appendIdentity — and the rest bytes that follow it (a row, or codes).
// The slices view the record buffer until the next read.
func (ld *loader) readIdentity(rest int) (idx int, src, hash, tail []byte) {
	head := ld.read(4 + 2)
	idx, slen := int(binary.LittleEndian.Uint32(head)), int(binary.LittleEndian.Uint16(head[4:]))
	rec := ld.read(slen + 32 + rest)
	return idx, rec[:slen], rec[slen : slen+32], rec[slen+32:]
}

// buckets reads the Flat and IVF body: per label the entries, each
// checked against the bucket buildBucket makes of db's class, then for
// IVF each label's centroids and inverted lists.
func (ld *loader) buckets(kind byte, nlabels int) (Appender, error) {
	dim := ld.dim
	labels := make([]int, nlabels)
	buckets := make(map[int]*bucket, nlabels)
	total := 0
	ld.row = make([]float32, dim)
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
			idx, src, hash, rest := ld.readIdentity(4 * dim)
			if idx != int(b.idx[p]) {
				return nil, ld.fail(fmt.Errorf("%w: label %d's entry %d is %d, the database's %d", ErrForeignIndex, y, p, idx, b.idx[p]))
			}
			f32le.Decode(ld.row, rest)
			if err := ld.check.entry(idx, y, src, hash, ld.row); err != nil {
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
			for p := range list {
				pv := int(ld.u32())
				if pv >= n || ld.seen[pv] {
					return nil, ld.fail(fmt.Errorf("index: load: position %d of label %d out of range or in two lists: %w", pv, y, ErrCorrupt))
				}
				ld.seen[pv] = true
				covered++
				list[p] = int32(pv)
			}
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
		for j := range c.book.centroids {
			c.book.centroids[c.book.slot(j)] = math.Float32frombits(ld.u32())
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
