package fingerprint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"unsafe"

	"caltrain/internal/f32le"
)

// A CTFP file, version 3, little-endian, is a header, the source table,
// then four columns, each starting at a multiple of colAlign bytes from
// the start of the file, with zero bytes between:
//
//	"CTFP" | 0 u32 | version u32 | dim u32 | n u32 | nsrc u32 | table u32 | digest u32
//	sources  nsrc × (len u16 | name): each source once, by id (table bytes)
//	label    n × i32
//	source   n × u32, an id into the table
//	hash     n × [32]byte
//	rows     n·dim × f32, class-major: labels ascending, each class in database order
//
// Version 1 had no version word; its dimension stood where the zero is.
// Version 2 had no digest word. The digest is Digest(n) of the file's
// entries, which Save computes and LoadDB keeps, so an index file binds
// to a loaded database without a pass over its columns. The rows are in
// Digest's order, and the table is the bytes Digest hashes for it, so a
// database's digest is that of its file's parts.
const (
	dbMagic   = "CTFP"
	dbVersion = 3
	dbHead    = 32
	colAlign  = 64
)

// ioBufSize is the buffer Save writes through, and the first size of
// the image a stream of unknown length is read into.
const ioBufSize = 1 << 18

// maxPlausibleElems bounds the float32 count of the rows a header may
// claim (16 GB), like internal/index's loader.
const maxPlausibleElems = 4_000_000_000

// dbLayout is where a CTFP file's parts lie, in bytes from its start.
type dbLayout struct {
	dim, n, nsrc                int
	table                       int64 // the source table's length
	label, src, hash, rows, end int64 // where each column starts, and the file ends
	digest                      uint32
}

func newLayout(dim, n, nsrc int, table int64) dbLayout {
	at := func(off int64) int64 { return (off + colAlign - 1) &^ (colAlign - 1) }
	l := dbLayout{dim: dim, n: n, nsrc: nsrc, table: table}
	l.label = at(dbHead + table)
	l.src = at(l.label + 4*int64(n))
	l.hash = at(l.src + 4*int64(n))
	l.rows = at(l.hash + 32*int64(n))
	l.end = l.rows + 4*int64(n)*int64(dim)
	return l
}

// header is the file's first dbHead bytes.
func (l dbLayout) header() []byte {
	b := append(make([]byte, 0, dbHead), dbMagic...)
	for _, v := range []int64{0, dbVersion, int64(l.dim), int64(l.n), int64(l.nsrc), l.table, int64(l.digest)} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// padding is where the zero bytes before each column lie.
func (l dbLayout) padding() [4][2]int64 {
	n := int64(l.n)
	return [4][2]int64{{dbHead + l.table, l.label}, {l.label + 4*n, l.src}, {l.src + 4*n, l.hash}, {l.hash + 32*n, l.rows}}
}

// parseHeader reads the layout a file's first bytes declare; b may be
// cut short, and is checked as far as it goes.
func parseHeader(b []byte) (dbLayout, error) {
	word := func(i int) int64 { return int64(binary.LittleEndian.Uint32(b[4*i:])) }
	switch {
	case len(b) >= 4 && string(b[:4]) != dbMagic:
		return dbLayout{}, fmt.Errorf("fingerprint: load: bad magic %q: %w", b[:4], ErrCorrupt)
	case len(b) >= 8 && word(1) != 0:
		return dbLayout{}, fmt.Errorf("fingerprint: load: a version 1 file (dimension %d where later versions hold 0): %w", word(1), ErrVersionMismatch)
	case len(b) >= 12 && word(2) != dbVersion:
		return dbLayout{}, fmt.Errorf("fingerprint: load: unsupported version %d: %w", word(2), ErrVersionMismatch)
	case len(b) < dbHead:
		return dbLayout{}, truncated("header", io.ErrUnexpectedEOF)
	}
	dim, n, nsrc, table := word(3), word(4), word(5), word(6)
	switch {
	case dim <= 0 || dim > 1_000_000:
		return dbLayout{}, fmt.Errorf("fingerprint: load: implausible dimension %d: %w", dim, ErrCorrupt)
	case n > 100_000_000 || n*dim > maxPlausibleElems:
		return dbLayout{}, fmt.Errorf("fingerprint: load: implausible entry count %d (dim %d): %w", n, dim, ErrCorrupt)
	case nsrc > n || (nsrc == 0) != (n == 0) || table < 2*nsrc || table > nsrc*(2+maxSourceLen):
		// Every source is some entry's, and its name fits the u16 framing.
		return dbLayout{}, fmt.Errorf("fingerprint: load: %d sources in %d bytes for %d entries: %w", nsrc, table, n, ErrCorrupt)
	}
	l := newLayout(int(dim), int(n), int(nsrc), table)
	l.digest = uint32(word(7))
	if int64(int(l.end)) != l.end {
		return dbLayout{}, fmt.Errorf("fingerprint: load: a %d-byte file does not fit this host: %w", l.end, ErrCorrupt)
	}
	return l, nil
}

// Save writes the database as a CTFP file (see dbLayout): the header,
// whose digest word it computes from the entries it writes, never
// copying the word of a file the database was loaded from, then the
// source table and each column's runs as they are stored, the rows
// label by label.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	l := db.layout()
	l.digest = db.digest()
	s := saver{w: bufio.NewWriterSize(w, ioBufSize)}
	var scratch []byte // a big-endian host's encoding of one run
	s.put(l.header())
	s.put(appendTable(nil, db.sources))
	pad := l.padding()
	s.pad(pad[0])
	runs(&db.label, func(ys []int32) []byte { return f32le.Words(ys, &scratch) }, s.put)
	s.pad(pad[1])
	runs(&db.src, func(ids []uint32) []byte { return f32le.Words(ids, &scratch) }, s.put)
	s.pad(pad[2])
	runs(&db.hash, hashBytes, s.put)
	s.pad(pad[3])
	db.classRuns(&scratch, s.put)
	if s.err == nil {
		s.err = s.w.Flush()
	}
	if s.err != nil {
		return fmt.Errorf("fingerprint: save: %w", s.err)
	}
	return nil
}

// saver writes a file, keeping its first error.
type saver struct {
	w   *bufio.Writer
	err error
}

func (s *saver) put(b []byte) {
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

// pad writes the zero bytes of gap.
func (s *saver) pad(gap [2]int64) {
	var zeros [colAlign]byte
	s.put(zeros[:gap[1]-gap[0]])
}

// layout is where Save puts the database's parts. Callers hold the lock.
func (db *DB) layout() dbLayout {
	var table int64
	for _, s := range db.sources {
		table += 2 + int64(len(s))
	}
	return newLayout(db.dim, db.label.n, len(db.sources), table)
}

// appendTable appends the source table's encoding: each name as its
// length, u16, and its bytes.
func appendTable(b []byte, sources []string) []byte {
	for _, s := range sources {
		b = append(binary.LittleEndian.AppendUint16(b, uint16(len(s))), s...)
	}
	return b
}

// SavedSize reports how many bytes Save writes: the Content-Length a
// snapshot stream declares, so its reader can size its image up front.
func (db *DB) SavedSize() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.layout().end
}

// LoadDB reads a database Save wrote, as views over one image of its
// bytes: the label, source-id, hash and row columns are the image's own
// memory (a big-endian host decodes them in place first), and the rows
// are already class-major, so ClassRows(y) is the label's run of the
// file's rows and Entry(i).F a capacity-clipped row of it. Only the
// class index is built: each label's members, and the row of each entry
// when the labels do not ascend in database order. Database indices are
// the file's. The header's digest word is kept, unchecked, as Digest of
// the file's entries.
//
// A regular *os.File read from its start is mapped, read-only and
// private, on a unix host whose words are the format's: nothing is
// copied, and a page is read when it is first touched. The mapping
// lives as long as the process, so the inode loaded stays on disk until
// it exits, and a served file must be replaced by rename
// (ingest.WriteFile), never written in place. Any other reader — a
// snapshot response body, a pipe, a file that cannot be mapped — is read
// into one heap buffer: sized once when BytesLeft knows how much r
// holds, and the claim held to it; otherwise it starts at ioBufSize and
// at most doubles as bytes arrive, so a lying header costs memory in
// proportion to the bytes the stream really carries.
//
// Malformed input yields ErrCorrupt (a cut file also keeps
// io.ErrUnexpectedEOF in the chain) or ErrBadLabel, a version 1 or 2 file
// ErrVersionMismatch, never a panic, and every reader of the same bytes
// the same sentinel. The header is believed only after n·dim passes the
// plausibility bound.
func LoadDB(r io.Reader) (*DB, error) {
	db, _, err := loadDB(r)
	return db, err
}

// loadDB is LoadDB, and the mapping the database views: nil when it was
// read into the heap.
func loadDB(r io.Reader) (db *DB, mapped []byte, err error) {
	if f, ok := r.(*os.File); ok {
		if mapped = mapFile(f); mapped != nil {
			if db, err = decodeDB(mapped); err != nil {
				unmap(mapped) // nothing views it
				return nil, nil, err
			}
			return db, mapped, nil
		}
	}
	img, err := readImage(r)
	if err != nil {
		return nil, nil, err
	}
	db, err = decodeDB(img)
	return db, nil, err
}

// mapFile maps f whole when it is a regular file read from its start,
// on a host whose words are the format's; otherwise it returns nil.
func mapFile(f *os.File) []byte {
	if !f32le.Native() {
		return nil
	}
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() || st.Size() < dbHead || int64(int(st.Size())) != st.Size() {
		return nil
	}
	if off, err := f.Seek(0, io.SeekCurrent); err != nil || off != 0 {
		return nil
	}
	b, err := mapReadOnly(f, int(st.Size()))
	if err != nil {
		return nil
	}
	return b
}

// readImage reads a database's bytes into one heap buffer (see LoadDB).
func readImage(r io.Reader) ([]byte, error) {
	head := make([]byte, dbHead)
	k, err := io.ReadFull(r, head)
	l, herr := parseHeader(head[:k])
	if herr != nil {
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, truncated("header", err)
		}
		return nil, herr
	}
	room := min(l.end, ioBufSize)
	if left, ok := BytesLeft(r); ok {
		if l.end-dbHead > left {
			return nil, fmt.Errorf("fingerprint: load: header claims %d entries (%d bytes) but %d remain: %w: %w",
				l.n, l.end, dbHead+left, io.ErrUnexpectedEOF, ErrCorrupt)
		}
		room = l.end
	}
	img := make([]byte, room) // a layout ends past its header
	have := copy(img, head)
	for int64(have) < l.end {
		if have == len(img) {
			grown := make([]byte, min(l.end, 2*int64(have)))
			copy(grown, img)
			img = grown
		}
		k, err := io.ReadFull(r, img[have:])
		have += k
		if err != nil {
			return nil, truncated(fmt.Sprintf("byte %d of %d", have, l.end), err)
		}
	}
	return img, nil
}

// decodeDB builds the database over img, a whole file (see LoadDB).
func decodeDB(img []byte) (*DB, error) {
	l, err := parseHeader(img[:min(len(img), dbHead)])
	if err != nil {
		return nil, err
	}
	if int64(len(img)) < l.end {
		return nil, fmt.Errorf("fingerprint: load: header claims %d entries (%d bytes) but %d remain: %w: %w",
			l.n, l.end, len(img), io.ErrUnexpectedEOF, ErrCorrupt)
	}
	for _, gap := range l.padding() {
		if slices.ContainsFunc(img[gap[0]:gap[1]], func(b byte) bool { return b != 0 }) {
			return nil, fmt.Errorf("fingerprint: load: padding at bytes %d–%d is not zero: %w", gap[0], gap[1], ErrCorrupt)
		}
	}
	db, err := NewDB(l.dim)
	if err != nil {
		return nil, err
	}
	if err := db.readTable(img[dbHead:dbHead+l.table], l.nsrc); err != nil {
		return nil, err
	}
	n := int64(l.n)
	labels := f32le.View[int32](img[l.label : l.label+4*n])
	ids := f32le.View[uint32](img[l.src : l.src+4*n])
	next := uint32(0) // the id the next new source takes: ids are handed out in order
	for i, id := range ids {
		if id > next || id >= uint32(l.nsrc) {
			return nil, fmt.Errorf("fingerprint: load entry %d: source id %d, want at most %d of %d: %w", i, id, next, l.nsrc, ErrCorrupt)
		}
		if id == next {
			next++
		}
	}
	if int(next) != l.nsrc {
		return nil, fmt.Errorf("fingerprint: load: entries use %d of %d sources: %w", next, l.nsrc, ErrCorrupt)
	}
	ascending := true
	for i, y := range labels {
		if y < 0 {
			return nil, fmt.Errorf("fingerprint: load entry %d: %w: %d", i, ErrBadLabel, y)
		}
		ascending = ascending && (i == 0 || labels[i-1] <= y)
	}
	var hashes [][32]byte
	if n > 0 {
		hashes = unsafe.Slice((*[32]byte)(unsafe.Pointer(&img[l.hash])), n)
	}
	db.label, db.hash, db.src = loadedColumn(1, labels), loadedColumn(1, hashes), loadedColumn(1, ids)
	db.arena, db.loaded = f32le.View[float32](img[l.rows:l.end]), l.n
	db.stamp, db.stamped = l.digest, l.n
	db.indexClasses(labels, ascending)
	return db, nil
}

// readTable sets the database's sources from the table's bytes: nsrc
// names, none twice, that fill it.
func (db *DB) readTable(b []byte, nsrc int) error {
	names := string(b) // one copy: every source is a piece of it
	db.sources = make([]string, 0, nsrc)
	db.srcID = make(map[string]uint32, nsrc)
	off := 0
	for len(db.sources) < nsrc {
		if len(b)-off < 2 || len(b)-off-2 < int(binary.LittleEndian.Uint16(b[off:])) {
			return fmt.Errorf("fingerprint: load: source table cut at source %d: %w", len(db.sources), ErrCorrupt)
		}
		s := names[off+2 : off+2+int(binary.LittleEndian.Uint16(b[off:]))]
		if _, dup := db.srcID[s]; dup {
			return fmt.Errorf("fingerprint: load: source %q listed twice: %w", s, ErrCorrupt)
		}
		db.srcID[s] = uint32(len(db.sources))
		db.sources = append(db.sources, s)
		off += 2 + len(s)
	}
	if off != len(b) {
		return fmt.Errorf("fingerprint: load: %d bytes past the source table's %d sources: %w", len(b)-off, nsrc, ErrCorrupt)
	}
	return nil
}

// indexClasses builds the class index of the loaded entries, whose
// labels are labels: each label's members and its block of the arena,
// and, unless the labels ascend in database order, rowAt.
func (db *DB) indexClasses(labels []int32, ascending bool) {
	n, dim := len(labels), db.dim
	members := make([]int32, n) // database index by class-major row: every class's members, back to back
	// rowAt holds each entry's class, numbered as the classes first
	// appear, then its row. When the labels ascend, an entry's row is its
	// own index, so rowAt can be members: entry i's row is written over
	// its class number, after it was read.
	rowAt := members
	if !ascending {
		rowAt = make([]int32, n)
		db.rowAt = rowAt
	}
	slot := make(map[int32]int32) // a label's class number
	var ys []int32
	var next []int
	k := int32(-1)
	for i, y := range labels {
		if k < 0 || ys[k] != y { // a class's entries mostly come in runs
			var ok bool
			if k, ok = slot[y]; !ok {
				k = int32(len(ys))
				slot[y], ys, next = k, append(ys, y), append(next, 0)
			}
		}
		rowAt[i] = k
		next[k]++
	}
	start := 0 // next[k] becomes the row class k's next entry takes
	for _, y := range slices.Sorted(maps.Keys(slot)) {
		k := slot[y]
		end := start + next[k]
		db.byClass[int(y)] = &class{members: loadedColumn(1, members[start:end:end]), rows: loadedColumn(dim, db.arena[start*dim:end*dim:end*dim])}
		next[k], start = start, end
	}
	for i, k := range rowAt {
		row := next[k]
		next[k]++
		rowAt[i], members[row] = int32(row), int32(i)
	}
}

// truncated wraps a read failure as corruption. A stream that ends
// where the header promised more reads as io.EOF; that is an unexpected
// end too.
func truncated(where string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("fingerprint: load %s: %w: %w", where, err, ErrCorrupt)
}

// BytesLeft reports at most how many bytes r can still yield: what lies
// between a seeker's position and its end (the position is left where
// it was), or a LimitedReader's N (a response body cut at its
// Content-Length). ok is false for a reader that cannot say: a stream,
// or a pipe behind an *os.File. The format loaders hold the counts a
// header claims to it before allocating for them.
func BytesLeft(r io.Reader) (left int64, ok bool) {
	if l, ok := r.(*io.LimitedReader); ok {
		return l.N, true
	}
	s, ok := r.(io.Seeker)
	if !ok {
		return 0, false
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, false
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, false
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return 0, false
	}
	return end - cur, true
}
