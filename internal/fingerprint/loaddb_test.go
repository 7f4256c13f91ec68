package fingerprint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/iotest"
)

// fileDB builds a database by Add and returns it with its Save bytes.
// grouped lays the labels out one after the other (what caltrain-shard
// and a label-by-label fingerprinting run write); otherwise they
// interleave record by record.
func fileDB(t testing.TB, dim, n, classes int, grouped bool, seed uint64) (*DB, []byte) {
	t.Helper()
	db, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 5))
	for i := 0; i < n; i++ {
		y := i % classes
		if grouped {
			// Descending labels: grouped, but not in label order.
			y = classes - 1 - i*classes/n
		}
		var h [32]byte
		binary.LittleEndian.PutUint32(h[:], uint32(i))
		l := Linkage{F: randomFP(rng, dim), Y: y, S: fmt.Sprintf("participant-%02d", i%7), H: h}
		if err := db.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return db, buf.Bytes()
}

// checkArena holds a loaded database to the layout LoadDB promises:
// every class block is the class's fingerprints, contiguous and in
// database order, and every entry's F is the capacity-clipped row of
// its block.
func checkArena(t testing.TB, db *DB) {
	t.Helper()
	covered := 0
	for _, y := range db.Labels() {
		idxs, block := db.ClassIndex(y), classBlock(db, y)
		if len(block) != len(idxs)*db.Dim() || cap(block) != len(block) {
			t.Fatalf("label %d: block of %d floats (cap %d) for %d entries of dim %d", y, len(block), cap(block), len(idxs), db.Dim())
		}
		for k, i := range idxs {
			e := db.Entry(i)
			if e.Y != y || len(e.F) != db.Dim() || cap(e.F) != db.Dim() {
				t.Fatalf("entry %d: label %d, len %d, cap %d", i, e.Y, len(e.F), cap(e.F))
			}
			if &e.F[0] != &block[k*db.Dim()] {
				t.Fatalf("entry %d is not row %d of label %d's block", i, k, y)
			}
			if k > 0 && idxs[k-1] >= i {
				t.Fatalf("label %d: class index not ascending at %d", y, k)
			}
		}
		covered += len(idxs)
	}
	if covered != db.Len() {
		t.Fatalf("class indices cover %d of %d entries", covered, db.Len())
	}
}

// sameLinkage compares field by field, floats by their bits: a fuzzed
// file may hold NaNs.
func sameLinkage(a, b Linkage) bool {
	return a.Y == b.Y && a.S == b.S && a.H == b.H &&
		slices.EqualFunc(a.F, b.F, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

func sameEntries(t testing.TB, got, want *DB) {
	t.Helper()
	if got.Len() != want.Len() || got.Dim() != want.Dim() {
		t.Fatalf("size %d×%d, want %d×%d", got.Len(), got.Dim(), want.Len(), want.Dim())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Entry(i), want.Entry(i); !sameLinkage(g, w) {
			t.Fatalf("entry %d: %+v, want %+v", i, g, w)
		}
	}
}

// records decodes a CTFP file independently of LoadDB: its linkages
// in database order, and the length of the file they end at.
func records(t testing.TB, raw []byte) (ls []Linkage, end int) {
	t.Helper()
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(raw[off:])) }
	dim, n, nsrc, table := u32(12), u32(16), u32(20), u32(24)
	var sources []string
	for off := 32; len(sources) < nsrc; {
		k := int(binary.LittleEndian.Uint16(raw[off:]))
		sources = append(sources, string(raw[off+2:off+2+k]))
		off += 2 + k
	}
	up := func(off int) int { return (off + 63) / 64 * 64 }
	label := up(32 + table)
	src := up(label + 4*n)
	hash := up(src + 4*n)
	rows := up(hash + 32*n)
	ls = make([]Linkage, n)
	order := make([]int, n) // database indices in row order: by label, stably
	for i := range ls {
		ls[i].Y = int(int32(u32(label + 4*i)))
		ls[i].S = sources[u32(src+4*i)]
		copy(ls[i].H[:], raw[hash+32*i:])
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return ls[a].Y - ls[b].Y })
	for r, i := range order {
		ls[i].F = make(Fingerprint, dim)
		for j := range ls[i].F {
			ls[i].F[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[rows+4*(r*dim+j):]))
		}
	}
	return ls, rows + 4*n*dim
}

// added builds a database of dimension dim holding ls, by Add.
func added(t testing.TB, dim int, ls []Linkage) *DB {
	t.Helper()
	db, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ls {
		if err := db.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func savedDB(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkLayout holds a database loaded from raw to what the columnar
// layout must not show: Entry(i) is record i field by field, and raw is
// what Save writes for a database its records build by Add; Snapshot(n)
// answers, lists its classes and saves like a database loaded from the
// file of the first n records, and goes on doing so when both take the
// same Adds — which the database it was cut from must not see.
func checkLayout(t testing.TB, db *DB, raw []byte) {
	t.Helper()
	want, end := records(t, raw)
	for i, w := range want {
		if g := db.Entry(i); !sameLinkage(g, w) {
			t.Fatalf("entry %d: %+v, want record %+v", i, g, w)
		}
	}
	if !bytes.Equal(savedDB(t, added(t, db.Dim(), want)), raw[:end]) {
		t.Fatal("the file is not what Save writes for the database its records build")
	}
	extra := []Linkage{{F: make(Fingerprint, db.Dim()), Y: 0, S: "late"}, {F: make(Fingerprint, db.Dim()), Y: 1 << 20, S: "participant-00"}}
	for _, n := range []int{0, 1, len(want) / 2, len(want)} {
		if n > len(want) {
			continue
		}
		ref, err := LoadDB(bytes.NewReader(savedDB(t, added(t, db.Dim(), want[:n]))))
		if err != nil {
			t.Fatalf("first %d records do not load: %v", n, err)
		}
		snap := db.Snapshot(n)
		for round := 0; round < 2; round++ {
			sameEntries(t, snap, ref)
			if !reflect.DeepEqual(snap.Labels(), ref.Labels()) {
				t.Fatalf("snapshot(%d) labels %v, want %v", n, snap.Labels(), ref.Labels())
			}
			for _, y := range ref.Labels() {
				if !reflect.DeepEqual(snap.ClassIndex(y), ref.ClassIndex(y)) || len(classBlock(snap, y)) != len(classBlock(ref, y)) {
					t.Fatalf("snapshot(%d) label %d: class index or block differs from the prefix file's", n, y)
				}
				g, _ := snap.Query(extra[0].F, y, 5)
				w, _ := ref.Query(extra[0].F, y, 5)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("snapshot(%d) label %d: query %+v, want %+v", n, y, g, w)
				}
			}
			if !bytes.Equal(savedDB(t, snap), savedDB(t, ref)) {
				t.Fatalf("snapshot(%d) saves different bytes than the prefix file's database", n)
			}
			for _, l := range extra { // second round: the same again after Add
				if err := snap.Add(l); err != nil {
					t.Fatal(err)
				}
				if err := ref.Add(l); err != nil {
					t.Fatal(err)
				}
			}
		}
		again, err := LoadDB(bytes.NewReader(savedDB(t, snap)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(savedDB(t, again), savedDB(t, snap)) {
			t.Fatalf("snapshot(%d): Add after load does not round-trip through Save", n)
		}
	}
	if !bytes.Equal(savedDB(t, db), raw[:end]) {
		t.Fatal("Adds on snapshots changed the database they were cut from")
	}
}

// TestLoadDBClassMajor: whatever order the labels come in, ascending,
// descending or interleaved, the loaded database keeps the file's
// indices, answers like the Add-built one, saves the same bytes, and
// holds every class as one contiguous block its entries alias.
func TestLoadDBClassMajor(t *testing.T) {
	_, raw := fileDB(t, 6, 64, 3, false, 3)
	ls, _ := records(t, raw)
	slices.SortStableFunc(ls, func(a, b Linkage) int { return a.Y - b.Y })
	raw = savedDB(t, added(t, 6, ls))
	got, err := LoadDB(bytes.NewReader(raw))
	if err != nil || got.rowAt != nil {
		t.Fatalf("labels in ascending order: %v, a row map of %d", err, len(got.rowAt))
	}
	checkArena(t, got)
	checkLayout(t, got, raw)
	for _, grouped := range []bool{true, false} {
		want, raw := fileDB(t, 6, 211, 5, grouped, 3)
		got, err := LoadDB(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		sameEntries(t, got, want)
		checkArena(t, got)
		checkLayout(t, got, raw)
		rng := rand.New(rand.NewPCG(8, 8))
		for trial := 0; trial < 20; trial++ {
			q := randomFP(rng, 6)
			g, err := got.Query(q, trial%6, 7)
			if err != nil {
				t.Fatal(err)
			}
			w, _ := want.Query(q, trial%6, 7)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("grouped=%v query %d: %+v, want %+v", grouped, trial, g, w)
			}
		}
		var again bytes.Buffer
		if err := got.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), raw) {
			t.Fatalf("grouped=%v: Save after LoadDB differs from the file", grouped)
		}
	}
}

// TestEntryFingerprintCapClipped: a caller appending to a returned
// fingerprint must get a fresh array, not the next row of the arena.
func TestEntryFingerprintCapClipped(t *testing.T) {
	_, raw := fileDB(t, 4, 12, 2, true, 9)
	db, err := LoadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	idxs := db.ClassIndex(db.Labels()[0])
	next := append(Fingerprint(nil), db.Entry(idxs[1]).F...)
	_ = append(db.Entry(idxs[0]).F, 42, 42, 42, 42)
	if got := db.Entry(idxs[1]).F; !reflect.DeepEqual(got, next) {
		t.Fatalf("append to row 0 overwrote row 1: %v, want %v", got, next)
	}
}

// TestSnapshotCarriesBlocks: a snapshot shares the class blocks clipped
// to its prefix, a later Add on either side leaves the other intact, and
// entries stored by Add stay outside every block.
func TestSnapshotCarriesBlocks(t *testing.T) {
	_, raw := fileDB(t, 4, 40, 3, false, 15)
	db, err := LoadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 9; i++ {
		if err := db.Add(Linkage{F: randomFP(rng, 4), Y: i % 4, S: "late"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{-1, 49, 40, 17, 1, 0} {
		snap := db.Snapshot(n)
		if n < 0 {
			n = db.Len()
		}
		if snap.Len() != n {
			t.Fatalf("snapshot(%d) holds %d", n, snap.Len())
		}
		for _, y := range db.Labels() {
			idxs, block := snap.ClassIndex(y), classBlock(snap, y)
			for _, i := range idxs {
				if i >= n || snap.Entry(i).Y != y {
					t.Fatalf("snapshot(%d) label %d lists entry %d", n, y, i)
				}
			}
			loaded := 0 // class members that came from the file
			for _, i := range idxs {
				if i < 40 {
					loaded++
				}
			}
			if len(block) != loaded*4 {
				t.Fatalf("snapshot(%d) label %d: block of %d floats, want %d rows", n, y, len(block), loaded)
			}
			if loaded > 0 && &block[0] != &classBlock(db, y)[0] {
				t.Fatalf("snapshot(%d) label %d: block is a copy", n, y)
			}
		}
	}
	snap := db.Snapshot(20)
	before, class := db.Entry(20), db.ClassIndex(db.Entry(20).Y)
	if err := snap.Add(Linkage{F: randomFP(rng, 4), Y: before.Y, S: "fork"}); err != nil {
		t.Fatal(err)
	}
	if got := db.Entry(20); !reflect.DeepEqual(got, before) {
		t.Fatalf("Add on a snapshot rewrote live entry 20: %+v", got)
	}
	if got := db.ClassIndex(before.Y); !reflect.DeepEqual(got, class) {
		t.Fatalf("Add on a snapshot rewrote the live class index: %v, want %v", got, class)
	}

	// Cut inside the chunk the nine added entries share: the snapshot's
	// next entry and the database's entry 45 are the same chunk slot.
	snap = db.Snapshot(45)
	var live []Linkage
	for i := 45; i < db.Len(); i++ {
		live = append(live, db.Entry(i))
	}
	fork := Linkage{F: randomFP(rng, 4), Y: live[0].Y, S: "fork", H: [32]byte{1}}
	if err := snap.Add(fork); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(Linkage{F: randomFP(rng, 4), Y: live[0].Y, S: "live"}); err != nil {
		t.Fatal(err)
	}
	for i, w := range live {
		if g := db.Entry(45 + i); !sameLinkage(g, w) {
			t.Fatalf("Add on a snapshot cut inside a chunk rewrote live entry %d: %+v, want %+v", 45+i, g, w)
		}
	}
	if g := snap.Entry(45); !sameLinkage(g, fork) || snap.Len() != 46 || db.Entry(49).S != "live" {
		t.Fatalf("snapshot entry 45 is %+v after both sides added, live entry 49 %+v", g, db.Entry(49))
	}
	if got, want := snap.ClassIndex(fork.Y), append(db.Snapshot(45).ClassIndex(fork.Y), 45); !reflect.DeepEqual(got, want) {
		t.Fatalf("forked class index %v, want %v", got, want)
	}
}

// onlyReader hides every method but Read, so LoadDB cannot seek.
type onlyReader struct{ io.Reader }

// v1File is what version 1 of Save wrote for db: "CTFP" | dim u32 | n
// u32, then per entry label i32 | srclen u16 | src | hash[32] | dim × f32.
func v1File(db *DB) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(dbMagic), uint32(db.Dim()))
	b = binary.LittleEndian.AppendUint32(b, uint32(db.Len()))
	for i := range db.Len() {
		e := db.Entry(i)
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Y))
		b = append(binary.LittleEndian.AppendUint16(b, uint16(len(e.S))), e.S...)
		b = append(b, e.H[:]...)
		for _, v := range e.F {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	return b
}

// v2File is what version 2 of Save wrote for the same entries as raw, a
// version 3 file: its header without the digest word, then the same
// table and columns, each aligned again.
func v2File(t testing.TB, raw []byte) []byte {
	t.Helper()
	l, err := parseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	b := slices.Clone(raw[:dbHead-4])
	binary.LittleEndian.PutUint32(b[8:], 2)
	b = append(b, raw[dbHead:dbHead+l.table]...)
	n := int64(l.n)
	for _, col := range [][2]int64{{l.label, 4 * n}, {l.src, 4 * n}, {l.hash, 32 * n}, {l.rows, 4 * n * int64(l.dim)}} {
		b = append(b, make([]byte, -len(b)&(colAlign-1))...)
		b = append(b, raw[col[0]:col[0]+col[1]]...)
	}
	return b
}

// malformed returns raw, a CTFP file of fileDB(4, 10, 2, false, 21),
// each way of breaking it, and the sentinels each must wrap.
func malformed(t testing.TB) (raw []byte, cases []malformedCase) {
	db, raw := fileDB(t, 4, 10, 2, false, 21)
	l, err := parseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	with := func(edits ...int64) []byte { // offset, word, offset, word, ...
		b := bytes.Clone(raw)
		for k := 0; k < len(edits); k += 2 {
			binary.LittleEndian.PutUint32(b[edits[k]:], uint32(edits[k+1]))
		}
		return b
	}
	dup := bytes.Clone(raw) // participant-00, then participant-00 again
	copy(dup[dbHead+16+2:], raw[dbHead+2:dbHead+16])
	padded := bytes.Clone(raw)
	padded[l.label-1] = 1
	reordered := bytes.Clone(raw) // every source used, but source 2 before source 1
	for i, id := range []uint32{0, 2, 1, 2, 3, 4, 5, 6, 0, 1} {
		binary.LittleEndian.PutUint32(reordered[l.src+4*int64(i):], id)
	}
	cut, lie := []error{ErrCorrupt, io.ErrUnexpectedEOF}, []error{ErrCorrupt}
	return raw, []malformedCase{
		{"empty", nil, cut},
		{"short header", raw[:9], cut},
		{"bad magic", append([]byte("ZZZZ"), raw[4:]...), lie},
		{"a version 1 file", v1File(db), []error{ErrVersionMismatch}},
		{"a version 2 file", v2File(t, raw), []error{ErrVersionMismatch}},
		{"version 4", with(8, 4), []error{ErrVersionMismatch}},
		{"cut in the digest word", raw[:dbHead-2], cut},
		{"zero dim", with(12, 0), lie},
		{"huge dim", with(12, 2_000_000), lie},
		{"lying dim", with(12, 5), cut},
		{"lying count", with(16, 90_000_000), cut},
		{"implausible product", with(12, 900_000, 16, 90_000_000), lie},
		{"lying source count", with(20, 8), lie},
		{"source table longer than its sources", with(24, l.table+2), lie},
		{"cut in the source table", raw[:dbHead+20], cut},
		{"cut in the label column", raw[:l.label+5], cut},
		{"cut in the source column", raw[:l.src+5], cut},
		{"cut in the hash column", raw[:l.hash+40], cut},
		{"cut in the rows", raw[:len(raw)-3], cut},
		{"source id past the table", with(l.src+4*9, 7), lie},
		{"source ids out of order", with(l.src, 1), lie},
		{"a source used before the one listed before it", reordered, lie},
		{"a listed source no entry uses", with(l.src+4*6, 5), lie},
		{"source listed twice", dup, lie},
		{"nonzero padding", padded, lie},
		{"negative label", with(l.label, 0xffffffff), []error{ErrBadLabel}},
	}
}

type malformedCase struct {
	name string
	data []byte
	want []error
}

// loadFile loads data through a file at path, the way a daemon loads
// -db, and returns the mapping the database views (nil if none), which
// the caller unmaps when done with the database.
func loadFile(t testing.TB, path string, data []byte) (*DB, []byte, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return loadDB(f)
}

// TestLoadDBRejectsMalformed: every malformed input is a typed sentinel,
// the same one whether it is read from a file, a seekable reader or a
// stream, and a cut one keeps io.ErrUnexpectedEOF in the chain.
func TestLoadDBRejectsMalformed(t *testing.T) {
	raw, cases := malformed(t)
	path := filepath.Join(t.TempDir(), "db")
	for _, tc := range cases {
		_, _, ferr := loadFile(t, path, tc.data)
		_, err := LoadDB(bytes.NewReader(tc.data))
		_, serr := LoadDB(onlyReader{bytes.NewReader(tc.data)})
		for way, err := range map[string]error{"a file": ferr, "a seekable reader": err, "a stream": serr} {
			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Errorf("%s from %s: error %v does not wrap %v", tc.name, way, err, want)
				}
			}
		}
	}
	// The size check must leave a seekable reader where LoadDB found it.
	r := bytes.NewReader(append([]byte("prefix--"), raw...))
	if _, err := r.Seek(8, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if db, err := LoadDB(r); err != nil || db.Len() != 10 {
		t.Fatalf("load from mid-stream position: %v", err)
	}
}

// allocated reports the bytes LoadDB(r) allocates, and its error.
func allocated(r io.Reader) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadDB(r)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// classIndexBudget is what LoadDB may allocate besides the image: the
// class index, 4 B per entry and 4 more for rowAt, and 64 KiB.
func classIndexBudget(n int) uint64 { return uint64(8*n + 64<<10) }

// TestLoadDBStreamSizedByRecords: a stream that cannot seek is believed
// only as far as its bytes go. A 32-byte header claiming 100 M entries
// costs one ioBufSize of image, not the gigabytes the header names; a
// stream that keeps its word — its image grown several times on the way
// — ends in the layout a seekable reader loads into, and allocates at
// most three images' worth: each growth at most doubles. A stream that
// declares its length (a response body cut at its Content-Length) is
// read into one image, like a reader that can seek.
func TestLoadDBStreamSizedByRecords(t *testing.T) {
	hdr := newLayout(1, 100_000_000, 1, 3).header()
	grew, err := allocated(onlyReader{bytes.NewReader(hdr)})
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("32-byte stream claiming 100M entries: %v", err)
	}
	if grew >= ioBufSize+64<<10 {
		t.Fatalf("32-byte stream claiming 100M entries allocated %d bytes", grew)
	}

	for _, grouped := range []bool{true, false} {
		const n = 20_000
		want, raw := fileDB(t, 4, n, 3, grouped, 4) // a 1.2 MB file: the image grows 3 times
		sized, err := LoadDB(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadDB(onlyReader{bytes.NewReader(raw)})
		if err != nil {
			t.Fatal(err)
		}
		sameEntries(t, got, want)
		checkArena(t, got)
		gr, gp, gc := got.ResidentBytes()
		sr, sp, sc := sized.ResidentBytes()
		if gr != sr || gp != sp || gc != sc {
			t.Fatalf("grouped=%v: stream-loaded columns hold %d/%d/%d bytes, file-loaded %d/%d/%d", grouped, gr, gp, gc, sr, sp, sc)
		}
		if !bytes.Equal(savedDB(t, got), raw) {
			t.Fatalf("grouped=%v: Save after a stream load differs from the file", grouped)
		}
		if size := got.SavedSize(); size != int64(len(raw)) {
			t.Fatalf("grouped=%v: SavedSize %d, Save wrote %d bytes", grouped, size, len(raw))
		}

		streamed, _ := allocated(onlyReader{bytes.NewReader(raw)})
		declared, err := allocated(io.LimitReader(onlyReader{bytes.NewReader(raw)}, int64(len(raw))))
		if err != nil {
			t.Fatal(err)
		}
		if image := uint64(len(raw)); declared > image+classIndexBudget(n) || streamed > 3*image+classIndexBudget(n) || streamed <= declared {
			t.Fatalf("grouped=%v: a %d-byte file allocated %d bytes from a declared-length stream, %d from a stream", grouped, image, declared, streamed)
		}
	}
	// Refused at the header: the claim outruns the declared length.
	if grew, err := allocated(io.LimitReader(onlyReader{bytes.NewReader(hdr)}, 1<<30)); !errors.Is(err, ErrCorrupt) || grew >= 64<<10 {
		t.Fatalf("32-byte stream declaring 1 GiB, claiming 100M entries: allocated %d bytes, %v", grew, err)
	}
}

// mapsFiles reports whether LoadDB maps a file on this host: a unix
// host whose words are the format's.
func mapsFiles(t testing.TB) bool {
	t.Helper()
	_, raw := fileDB(t, 2, 3, 2, true, 1)
	db, mapped, err := loadFile(t, filepath.Join(t.TempDir(), "probe"), raw)
	if err != nil || db.Len() != 3 {
		t.Fatalf("probe: %v", err)
	}
	unmap(mapped)
	return mapped != nil
}

// TestLoadDBMapsFile: a database loaded from a file views the file's
// bytes in place. LoadDB allocates its class index and not the 16 MB
// of linkages, with the labels ascending (no row map) and interleaved
// (a row map), and the database answers as the one that saved it.
func TestLoadDBMapsFile(t *testing.T) {
	if !mapsFiles(t) {
		t.Skip("LoadDB does not map files on this host")
	}
	const n, dim = 50_000, 64
	for _, grouped := range []bool{true, false} {
		want, raw := fileDB(t, dim, n, 8, grouped, 6)
		path := filepath.Join(t.TempDir(), "db")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := LoadDB(f)
		runtime.ReadMemStats(&after)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, classIndexBudget(n); got > limit {
			t.Errorf("grouped=%v: LoadDB of a %d-byte file allocated %d bytes, want at most %d", grouped, len(raw), got, limit)
		}
		sameEntries(t, db, want)
		checkArena(t, db)
		if !bytes.Equal(savedDB(t, db), raw) {
			t.Fatalf("grouped=%v: Save after a mapped load differs from the file", grouped)
		}
	}
}

// FuzzLoadDB holds the CTFP decoder to "a database or a typed sentinel,
// never a panic", reading every input three ways: a seekable reader, a
// stream that delivers short reads, and a file, which LoadDB maps. All
// three give the same sentinel, or databases that save the same bytes;
// on success the layout invariants hold, Save reproduces the consumed
// bytes but for the digest word, which it computes, and Digest of the
// file's entries is the word the file carries, unchecked.
func FuzzLoadDB(f *testing.F) {
	_, grouped := fileDB(f, 3, 9, 3, true, 1)
	_, interleaved := fileDB(f, 3, 9, 3, false, 2)
	_, long := fileDB(f, 1+ioBufSize/4, 2, 2, false, 3) // each row longer than a stream's first image
	f.Add(grouped)
	f.Add(interleaved)
	f.Add(long)
	stale := bytes.Clone(grouped) // a digest word that is not the entries' digest
	stale[dbHead-1] ^= 0x80
	f.Add(stale)
	_, cases := malformed(f)
	for _, c := range cases {
		f.Add(c.data)
	}
	path := filepath.Join(f.TempDir(), "db")
	canMap := mapsFiles(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fromFile, mapped, ferr := loadFile(t, path, data)
		defer unmap(mapped)
		if canMap && ferr == nil && mapped == nil {
			t.Fatal("a file that loads was not mapped")
		}
		db, err := LoadDB(bytes.NewReader(data))
		streamed, serr := LoadDB(iotest.HalfReader(bytes.NewReader(data)))
		for _, s := range []error{ErrCorrupt, ErrBadLabel, ErrVersionMismatch, io.ErrUnexpectedEOF} {
			if errors.Is(err, s) != errors.Is(serr, s) || errors.Is(err, s) != errors.Is(ferr, s) {
				t.Fatalf("seekable reader: %v; short-reading stream: %v; file: %v", err, serr, ferr)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadLabel) && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		consumed := savedDB(t, db)
		if !bytes.Equal(savedDB(t, streamed), consumed) || !bytes.Equal(savedDB(t, fromFile), consumed) {
			t.Fatal("a short-reading stream or a file loads a different database than the seekable reader")
		}
		checkArena(t, streamed)
		checkArena(t, fromFile)
		checkArena(t, db)
		stamp := binary.LittleEndian.Uint32(data[dbHead-4:])
		if !bytes.Equal(data[:dbHead-4], consumed[:dbHead-4]) || !bytes.HasPrefix(data[dbHead:], consumed[dbHead:]) {
			t.Fatalf("Save after LoadDB is not the %d bytes consumed", len(consumed))
		}
		for _, x := range []*DB{db, streamed, fromFile} {
			if got := x.Digest(x.Len()); got != stamp {
				t.Fatalf("Digest of the file's entries is %08x, the file carries %08x", got, stamp)
			}
		}
		checkLayout(t, db, consumed)
	})
}

// TestEntryNeverMoves: a fingerprint Entry handed out stays the entry's
// storage however far the database grows past it — through row-chunk
// boundaries and growths of every chunk table — for loaded entries and
// added ones alike.
func TestEntryNeverMoves(t *testing.T) {
	_, raw := fileDB(t, 4, 10, 2, false, 31)
	db, err := LoadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 1))
	var held []Fingerprint // Entry(i).F as first handed out
	var want []Linkage
	for i := 0; i < 10+5*chunkEntries; i++ {
		if i >= 10 {
			l := Linkage{F: randomFP(rng, 4), Y: i % 3, S: fmt.Sprintf("p%d", i%5)}
			l.H[0] = byte(i)
			if err := db.Add(l); err != nil {
				t.Fatal(err)
			}
		}
		e := db.Entry(i)
		held, want = append(held, e.F), append(want, Linkage{F: slices.Clone(e.F), Y: e.Y, S: e.S, H: e.H})
	}
	for i, w := range want {
		e := db.Entry(i)
		if !sameLinkage(e, w) {
			t.Fatalf("entry %d changed as the database grew: %+v, want %+v", i, e, w)
		}
		if &e.F[0] != &held[i][0] || !slices.Equal(held[i], w.F) {
			t.Fatalf("entry %d's row moved as the database grew", i)
		}
	}
}

// TestConcurrentAddQuerySnapshot: readers, a writer and snapshot-takers
// share one loaded database while it grows across row-chunk boundaries.
// Run under -race.
func TestConcurrentAddQuerySnapshot(t *testing.T) {
	_, raw := fileDB(t, 8, 300, 3, false, 27)
	db, err := LoadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 4))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query(randomFP(rng, 8), g, 5); err != nil {
					t.Error(err)
					return
				}
				i := rng.IntN(db.Len())
				if e, y := db.Entry(i), i%3; i >= 300 && e.Y != (i-300)%4 || i < 300 && e.Y != y || len(e.F) != 8 {
					t.Errorf("entry %d read as %+v", i, e)
					return
				}
				snap := db.Snapshot(-1)
				if got := len(snap.ClassIndex(g)); got < 100 {
					t.Errorf("snapshot lost label %d entries: %d", g, got)
					return
				}
				_ = classBlock(snap, g)[0]
				// An Add on the snapshot forks it off chunks the writer
				// is filling at this moment.
				n := snap.Len()
				if err := snap.Add(Linkage{F: randomFP(rng, 8), Y: g, S: "fork"}); err != nil || snap.Entry(n).S != "fork" {
					t.Errorf("Add on a snapshot of %d: %v, entry %+v", n, err, snap.Entry(n))
					return
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewPCG(77, 4))
	for i := 0; i < 3*chunkEntries; i++ {
		if err := db.Add(Linkage{F: randomFP(rng, 8), Y: i % 4, S: "w"}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if db.Len() != 300+3*chunkEntries {
		t.Fatalf("len %d", db.Len())
	}
}

// BenchmarkDBSaveLoad reports what one entry costs to write and to read
// back (dim 64, 8 labels, the file n × ~300 B): loaded from a file,
// which LoadDB maps and touches only the label and source-id columns
// of, and from a stream, read into one heap image. Allocations per entry
// are the regression canary: both directions are a constant handful per
// database, so the per-entry figure rounds to zero.
func BenchmarkDBSaveLoad(b *testing.B) {
	n := 100_000
	if testing.Short() {
		n = 2_000
	}
	db, raw := fileDB(b, 64, n, 8, true, 1)
	path := filepath.Join(b.TempDir(), "db")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		b.Fatal(err)
	}
	perEntry := func(b *testing.B, op func() error) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms1)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N*n), "allocs/entry")
		b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(b.N*n), "B/entry")
	}
	b.Run("save", func(b *testing.B) {
		perEntry(b, func() error { return db.Save(io.Discard) })
	})
	b.Run("load/file", func(b *testing.B) {
		perEntry(b, func() error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			_, mapped, err := loadDB(f)
			unmap(mapped) // each iteration maps the file afresh
			return err
		})
	})
	b.Run("load/stream", func(b *testing.B) {
		perEntry(b, func() error {
			_, err := LoadDB(bytes.NewReader(raw))
			return err
		})
	})
}

// TestColumnChunks holds the chunk arithmetic to the layout it promises
// at widths from a label to rows wider than a chunk: chunks double from
// firstElems elements up to a full one, every entry reads back what was
// stored, Array and Span hand out the array an entry lies in, a prefix
// reads only its entries, and bytes counts what the chunks allocated.
func TestColumnChunks(t *testing.T) {
	for _, w := range []int{1, 3, 8, 64, 300, 70_000} {
		c := newColumn[int32](w)
		per := 1 << c.pshift
		n := 3*per + 5 + (1<<c.pshift - 1<<c.fshift)
		for i := range n {
			v := make([]int32, w)
			v[0], v[w-1] = int32(i), int32(i)
			c.append(v...)
		}
		if got := len(c.chunks[0]); got > max(w, firstElems) || 2*got <= min(firstElems, per*w) {
			t.Fatalf("width %d: the first chunk holds %d elements", w, got)
		}
		allocated := 0
		for k, ch := range c.chunks {
			allocated += len(ch)
			if len(ch) != c.size(k)*w || (k > 0 && c.size(k) != min(2*c.size(k-1), per)) {
				t.Fatalf("width %d: chunk %d holds %d entries after %d", w, k, len(ch)/w, c.size(max(0, k-1)))
			}
		}
		if c.bytes(4) != int64(4*allocated) {
			t.Fatalf("width %d: bytes %d, chunks allocate %d", w, c.bytes(4), 4*allocated)
		}
		cut := c.Prefix(n - per/2 - 1)
		for i := range n {
			e := c.At(i)
			run, first := c.Array(i)
			if e[0] != int32(i) || e[w-1] != int32(i) || &run[(i-first)*w] != &e[0] || len(run)%w != 0 {
				t.Fatalf("width %d: entry %d reads %d..%d, its array starts at %d", w, i, e[0], e[w-1], first)
			}
			if i < cut.n && &cut.At(i)[0] != &e[0] {
				t.Fatalf("width %d: the prefix moved entry %d", w, i)
			}
		}
		if run, first := cut.Array(cut.n - 1); first+len(run)/w != cut.n {
			t.Fatalf("width %d: the prefix's last array runs to %d, past its %d entries", w, first+len(run)/w, cut.n)
		}
	}
}

// classBlock is the class-major run of rows LoadDB views for label y
// — the base of ClassRows(y) — or nil for a label holding only entries
// stored by Add.
func classBlock(db *DB, y int) []float32 {
	rows := db.ClassRows(y)
	return rows.base
}

// TestLoadDBKeepsDigest: the digest word Save writes is Digest of the
// file's entries, and a database LoadDB reads, from a mapped file or a
// stream, answers Digest(k) as the Add-built database of its entries
// does for k of 0, 1, n/2 and n — with the labels ascending, grouped out
// of order or interleaved, and again after both grow by Add. It returns
// the word for the file's n entries without reading them: a file whose
// word is not their digest gives that word for n, the computed digest
// for every other k, and saves the computed one.
func TestLoadDBKeepsDigest(t *testing.T) {
	const dim, n = 8, 600
	_, grouped := fileDB(t, dim, n, 3, true, 9)
	_, interleaved := fileDB(t, dim, n, 3, false, 9)
	ls, _ := records(t, interleaved)
	slices.SortStableFunc(ls, func(a, b Linkage) int { return a.Y - b.Y })
	extra := []Linkage{{F: make(Fingerprint, dim), Y: 1, S: "late"}, {F: make(Fingerprint, dim), Y: 7, S: "participant-00"}}
	dir := t.TempDir()
	for name, raw := range map[string][]byte{"ascending": savedDB(t, added(t, dim, ls)), "grouped": grouped, "interleaved": interleaved} {
		recs, _ := records(t, raw)
		want := added(t, dim, append(recs, extra...)) // its first n entries are the file's
		if stamp := binary.LittleEndian.Uint32(raw[dbHead-4:]); stamp != want.Digest(n) {
			t.Fatalf("%s: the file carries %08x, its entries' digest is %08x", name, stamp, want.Digest(n))
		}
		stale := bytes.Clone(raw)
		stale[dbHead-1] ^= 0x80
		for way, raw := range map[string][]byte{"": raw, ", a stale word": stale} {
			fromFile, mapped, err := loadFile(t, filepath.Join(dir, name), raw)
			if err != nil {
				t.Fatal(err)
			}
			defer unmap(mapped)
			streamed, err := LoadDB(onlyReader{bytes.NewReader(raw)})
			if err != nil {
				t.Fatal(err)
			}
			for from, db := range map[string]*DB{"a file": fromFile, "a stream": streamed} {
				for _, k := range []int{0, 1, n / 2, n} {
					got, w := db.Digest(k), want.Digest(k)
					if k == n {
						w = binary.LittleEndian.Uint32(raw[dbHead-4:])
					}
					if got != w {
						t.Errorf("%s from %s%s: Digest(%d) = %08x, want %08x", name, from, way, k, got, w)
					}
				}
				if !bytes.Equal(savedDB(t, db), savedDB(t, want.Snapshot(n))) {
					t.Errorf("%s from %s%s: Save does not write the entries' digest", name, from, way)
				}
				for _, l := range extra {
					if err := db.Add(l); err != nil {
						t.Fatal(err)
					}
				}
				for _, k := range []int{0, 1, n / 2, n + 1, n + len(extra)} {
					if got, w := db.Digest(k), want.Digest(k); got != w {
						t.Errorf("%s from %s%s, grown by Add: Digest(%d) = %08x, want %08x", name, from, way, k, got, w)
					}
				}
			}
		}
	}
}

// TestDigest: Digest(k) is a function of the first k entries alone —
// the same over the database that wrote a file and the database LoadDB
// reads from it (grouped or interleaved, so with or without a row map),
// over a Snapshot and over a database holding those k entries only —
// and one edit of an entry, to a row bit, its source, a hash byte or
// its label, or a source's name, moves the digest of every prefix
// holding an edited entry and of none that does not.
func TestDigest(t *testing.T) {
	const dim, n, edited = 8, 600, 300
	copyOf := func(db *DB, k int, edit func(i int, l *Linkage)) *DB {
		out, err := NewDB(dim)
		if err != nil {
			t.Fatal(err)
		}
		for i := range k {
			l := db.Entry(i)
			l.F = slices.Clone(l.F)
			edit(i, &l)
			if err := out.Add(l); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	for _, grouped := range []bool{false, true} {
		added, raw := fileDB(t, dim, n, 3, grouped, 9)
		loaded, err := LoadDB(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 257, n} {
			want := added.Digest(k)
			for name, got := range map[string]uint32{
				"loaded":           loaded.Digest(k),
				"a snapshot":       added.Snapshot(k).Digest(k),
				"the prefix alone": copyOf(added, k, func(int, *Linkage) {}).Digest(k),
			} {
				if got != want {
					t.Errorf("grouped %v, first %d: %s digest %08x, the database's %08x", grouped, k, name, got, want)
				}
			}
		}
		one := func(edit func(*Linkage)) func(int, *Linkage) {
			return func(i int, l *Linkage) {
				if i == edited {
					edit(l)
				}
			}
		}
		for name, c := range map[string]struct {
			first int // the first entry the edit changes
			edit  func(int, *Linkage)
		}{
			"a row bit":   {edited, one(func(l *Linkage) { l.F[3] = math.Float32frombits(math.Float32bits(l.F[3]) ^ 1) })},
			"a source":    {edited, one(func(l *Linkage) { l.S = "mallory" })},
			"a hash byte": {edited, one(func(l *Linkage) { l.H[31] ^= 1 })},
			"a label":     {edited, one(func(l *Linkage) { l.Y = (l.Y + 1) % 3 })},
			"a source's name, the same ids": {3, func(_ int, l *Linkage) {
				if l.S == "participant-03" {
					l.S = "participant-3"
				}
			}},
		} {
			other := copyOf(added, n, c.edit)
			if other.Digest(n) == added.Digest(n) {
				t.Errorf("grouped %v: %s leaves the digest", grouped, name)
			}
			if other.Digest(c.first) != added.Digest(c.first) {
				t.Errorf("grouped %v: %s moves the digest of the entries before it changes", grouped, name)
			}
		}
	}
}

// TestDigestOutOfRange: Digest(n) covers the first n entries, so an n
// outside [0, Len] names entries the database does not hold. It panics,
// as a slice index past its length does, rather than answering the
// digest of the entries it has — over a built database, a loaded one
// (whose file's count is answered from the word it carries) and a
// snapshot alike.
func TestDigestOutOfRange(t *testing.T) {
	built, raw := fileDB(t, 4, 12, 3, false, 4)
	loaded, err := LoadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"built": built, "loaded": loaded, "a snapshot": built.Snapshot(5)} {
		for _, n := range []int{-1, db.Len() + 1, db.Len() + 2} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Digest(%d) of %d entries did not panic", name, n, db.Len())
					}
				}()
				db.Digest(n)
			}()
		}
		db.Digest(0)
		db.Digest(db.Len())
	}
}
