package fingerprint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
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

// records decodes a CTFP stream record by record, independently of
// LoadDB, and returns each linkage with the offset its record ends at.
func records(t testing.TB, raw []byte) (ls []Linkage, ends []int) {
	t.Helper()
	dim, n := int(binary.LittleEndian.Uint32(raw[4:])), int(binary.LittleEndian.Uint32(raw[8:]))
	off := 12
	for i := 0; i < n; i++ {
		l := Linkage{Y: int(int32(binary.LittleEndian.Uint32(raw[off:]))), F: make(Fingerprint, dim)}
		slen := int(binary.LittleEndian.Uint16(raw[off+4:]))
		l.S = string(raw[off+6 : off+6+slen])
		off += 6 + slen
		off += copy(l.H[:], raw[off:])
		for j := range l.F {
			l.F[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
			off += 4
		}
		ls, ends = append(ls, l), append(ends, off)
	}
	return ls, ends
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
// layout must not show: Entry(i) is record i field by field; Snapshot(n)
// answers, lists its classes and saves like a database loaded from the
// file's first n records, and goes on doing so when both take the same
// Adds — which the database it was cut from must not see.
func checkLayout(t testing.TB, db *DB, raw []byte) {
	t.Helper()
	want, ends := records(t, raw)
	for i, w := range want {
		if g := db.Entry(i); !sameLinkage(g, w) {
			t.Fatalf("entry %d: %+v, want record %+v", i, g, w)
		}
	}
	extra := []Linkage{{F: make(Fingerprint, db.Dim()), Y: 0, S: "late"}, {F: make(Fingerprint, db.Dim()), Y: 1 << 20, S: "participant-00"}}
	for _, n := range []int{0, 1, len(want) / 2, len(want)} {
		if n > len(want) {
			continue
		}
		prefix := append([]byte(nil), raw[:12]...)
		if n > 0 {
			prefix = append(prefix, raw[12:ends[n-1]]...)
		}
		binary.LittleEndian.PutUint32(prefix[8:], uint32(n))
		ref, err := LoadDB(bytes.NewReader(prefix))
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
	if !bytes.Equal(savedDB(t, db), raw) {
		t.Fatal("Adds on snapshots changed the database they were cut from")
	}
}

// TestLoadDBClassMajor: whatever order the file interleaves labels in,
// the loaded database keeps the file's indices, answers like the
// Add-built one, saves the same bytes, and holds every class as one
// contiguous block its entries alias.
func TestLoadDBClassMajor(t *testing.T) {
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

// TestLoadDBRejectsMalformed: every malformed input is a typed sentinel,
// and a cut stream keeps io.ErrUnexpectedEOF in the chain whether or
// not the reader can seek.
func TestLoadDBRejectsMalformed(t *testing.T) {
	_, raw := fileDB(t, 4, 10, 2, false, 21)
	header := func(dim, n uint32) []byte {
		b := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(b[4:], dim)
		binary.LittleEndian.PutUint32(b[8:], n)
		return b
	}
	negative := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(negative[12:], 0xffffffff) // first record's label = -1
	cases := []struct {
		name string
		data []byte
		want []error
	}{
		{"empty", nil, []error{ErrCorrupt, io.ErrUnexpectedEOF}},
		{"short header", raw[:9], []error{ErrCorrupt, io.ErrUnexpectedEOF}},
		{"bad magic", append([]byte("ZZZZ"), raw[4:]...), []error{ErrCorrupt}},
		{"cut mid-record", raw[:len(raw)-3], []error{ErrCorrupt, io.ErrUnexpectedEOF}},
		{"cut between records", raw[:12+(len(raw)-12)/10*4], []error{ErrCorrupt, io.ErrUnexpectedEOF}},
		{"zero dim", header(0, 10), []error{ErrCorrupt}},
		{"huge dim", header(2_000_000, 10), []error{ErrCorrupt}},
		{"lying count", header(4, 90_000_000), []error{ErrCorrupt, io.ErrUnexpectedEOF}},
		{"implausible product", header(900_000, 90_000_000), []error{ErrCorrupt}},
		{"negative label", negative, []error{ErrBadLabel}},
	}
	for _, tc := range cases {
		for _, seekable := range []bool{true, false} {
			var r io.Reader = bytes.NewReader(tc.data)
			if !seekable {
				r = onlyReader{r}
			}
			_, err := LoadDB(r)
			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Errorf("%s (seekable=%v): error %v does not wrap %v", tc.name, seekable, err, want)
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

// TestLoadDBStreamSizedByRecords: a stream that cannot seek is believed
// only as far as its records go. A 12-byte body claiming 100 M entries
// costs what one buffer of records would, not the gigabytes the header
// names; a stream that keeps its word — its columns grown several times
// on the way — ends in the exact-size layout a seekable file loads into.
// A stream that declares its length (a response body cut at its
// Content-Length) is sized up front like a file.
func TestLoadDBStreamSizedByRecords(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32([]byte(dbMagic), 1)
	hdr = binary.LittleEndian.AppendUint32(hdr, 100_000_000)
	grew, err := allocated(onlyReader{bytes.NewReader(hdr)})
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("12-byte stream claiming 100M entries: %v", err)
	}
	if grew >= 4<<20 {
		t.Fatalf("12-byte stream claiming 100M entries allocated %d bytes", grew)
	}

	for _, grouped := range []bool{true, false} {
		want, raw := fileDB(t, 4, 20_000, 3, grouped, 4) // the columns start at 4 855 entries
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

		fromFile, _ := allocated(bytes.NewReader(raw))
		streamed, _ := allocated(onlyReader{bytes.NewReader(raw)})
		declared, err := allocated(io.LimitReader(onlyReader{bytes.NewReader(raw)}, int64(len(raw))))
		if err != nil {
			t.Fatal(err)
		}
		if declared > fromFile+64<<10 || streamed < fromFile+fromFile/4 {
			t.Fatalf("grouped=%v: allocated %d bytes from a declared-length stream, %d from the file, %d from a stream", grouped, declared, fromFile, streamed)
		}
	}
	// Refused at the header: the claim outruns the declared length.
	if grew, err := allocated(io.LimitReader(onlyReader{bytes.NewReader(hdr)}, 1<<30)); !errors.Is(err, ErrCorrupt) || grew >= 64<<10 {
		t.Fatalf("12-byte stream declaring 1 GiB, claiming 100M entries: allocated %d bytes, %v", grew, err)
	}
}

// FuzzLoadDB holds the CTFP decoder to "a database or a typed sentinel,
// never a panic": on success the layout invariants hold and Save
// reproduces the consumed bytes exactly. A stream that cannot seek and
// delivers short reads must fare the same as the seekable reader.
func FuzzLoadDB(f *testing.F) {
	_, grouped := fileDB(f, 3, 9, 3, true, 1)
	_, interleaved := fileDB(f, 3, 9, 3, false, 2)
	lying := append([]byte(nil), interleaved...)
	binary.LittleEndian.PutUint32(lying[8:], 50_000_000)
	liar := append([]byte(nil), lying...)
	binary.LittleEndian.PutUint32(liar[12:], 0xffffffff) // and a first label of -1
	_, long := fileDB(f, 1+ioBufSize/4, 2, 2, false, 3)  // each record longer than the default read buffer
	f.Add(grouped)
	f.Add(interleaved)
	f.Add(interleaved[:len(interleaved)-5])
	f.Add(lying)
	f.Add(liar)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := LoadDB(bytes.NewReader(data))
		streamed, serr := LoadDB(iotest.HalfReader(bytes.NewReader(data)))
		if (err == nil) != (serr == nil) {
			t.Fatalf("seekable reader: %v; short-reading stream: %v", err, serr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadLabel) {
				t.Fatalf("untyped error: %v", err)
			}
			// The one way the two may part: a seekable reader refuses a
			// header whose claim outruns its bytes before any record,
			// while the stream reads records until it runs out and may
			// meet a negative label first.
			lied := errors.Is(err, io.ErrUnexpectedEOF) && errors.Is(serr, ErrBadLabel)
			for _, s := range []error{ErrCorrupt, ErrBadLabel, io.ErrUnexpectedEOF} {
				if errors.Is(err, s) != errors.Is(serr, s) && !lied {
					t.Fatalf("seekable reader: %v; short-reading stream: %v", err, serr)
				}
			}
			return
		}
		if !bytes.Equal(savedDB(t, streamed), savedDB(t, db)) {
			t.Fatal("a short-reading stream loads a different database than the seekable reader")
		}
		checkArena(t, streamed)
		checkArena(t, db)
		consumed := savedDB(t, db)
		if !bytes.HasPrefix(data, consumed) {
			t.Fatalf("Save after LoadDB is not the %d bytes consumed", len(consumed))
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
// back (dim 64, 8 labels, file-backed sizes are n × ~310 B). Allocations
// per entry are the regression canary: both directions are a constant
// handful per database, so the per-entry figure rounds to zero.
func BenchmarkDBSaveLoad(b *testing.B) {
	n := 100_000
	if testing.Short() {
		n = 2_000
	}
	db, raw := fileDB(b, 64, n, 8, true, 1)
	var ms0, ms1 runtime.MemStats
	b.Run("save", func(b *testing.B) {
		runtime.ReadMemStats(&ms0)
		for i := 0; i < b.N; i++ {
			if err := db.Save(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms1)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N*n), "allocs/entry")
	})
	b.Run("load", func(b *testing.B) {
		runtime.ReadMemStats(&ms0)
		for i := 0; i < b.N; i++ {
			if _, err := LoadDB(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms1)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N*n), "allocs/entry")
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

// classBlock is the class-major run of rows LoadDB laid out for label y
// — the base of ClassRows(y) — or nil for a label holding only entries
// stored by Add.
func classBlock(db *DB, y int) []float32 {
	rows := db.ClassRows(y)
	return rows.base
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
