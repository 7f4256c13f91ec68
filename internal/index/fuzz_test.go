package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"caltrain/internal/fingerprint"
)

// FuzzLoadIndex holds the CTIX decoder, reading over a database, to "the
// database's index or a typed sentinel, never a panic, never more memory
// than the input's own size class": seeded from saved flat, IVF and IVFPQ
// files, their truncations, one cut inside the binding, headers that
// claim 50 million labels, entries or class entries, a count one past
// its class, a file of another database of the same shape, a file of a
// database one row bit away, a version-1 file and a file of a prefix of
// the database. An index that loads must be the database's: as long as
// it, and every match it answers carries the database's label, source
// and hash at Match.Index and the exact distance to its row.
//
// Every input is loaded a second time through short reads of a stream
// that still says how long it is: both loads must save the same bytes,
// or fail with the same sentinel. long picks a second database, whose
// seeds hold inverted lists longer than the reader's buffer.
func FuzzLoadIndex(f *testing.F) {
	db, long := populatedDB(f, 4, 30, 2, 3), longDB(f)
	kinds := []func(*fingerprint.DB) (Searcher, error){
		func(db *fingerprint.DB) (Searcher, error) { return NewFlat(db), nil },
		func(db *fingerprint.DB) (Searcher, error) { return TrainIVF(db, IVFOptions{Nlist: 3, Seed: 1}) },
		func(db *fingerprint.DB) (Searcher, error) {
			return TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 3, Seed: 1}, M: 2})
		},
	}
	saved := func(train func(*fingerprint.DB) (Searcher, error), db *fingerprint.DB) []byte {
		s, err := train(db)
		if err != nil {
			f.Fatal(err)
		}
		return savedBytes(f, s)
	}
	flipped := flippedRowDB(f, db, 7)
	v1, err := os.ReadFile("testdata/pr19.ivfpq.ctix")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, v1)
	for _, train := range kinds {
		raw := saved(train, db)
		f.Add(false, raw)
		f.Add(false, raw[:len(raw)-7])
		f.Add(false, raw[:ixHead-3]) // cut inside the binding
		// nlabels sits at offset 10, the binding's entry count at 14, the
		// first label's count at ixHead+4.
		for _, off := range []int{10, 14, ixHead + 4} {
			lying := bytes.Clone(raw)
			binary.LittleEndian.PutUint32(lying[off:], 50_000_000)
			f.Add(false, lying)
		}
		past := bytes.Clone(raw)
		binary.LittleEndian.PutUint32(past[ixHead+4:], binary.LittleEndian.Uint32(past[ixHead+4:])+1)
		f.Add(false, past)
		f.Add(false, saved(train, flipped))
		f.Add(false, saved(train, populatedDB(f, 4, 30, 2, 4)))
		f.Add(false, saved(train, db.Snapshot(20)))
		f.Add(false, saved(train, populatedDB(f, 4, 40, 2, 3))) // db's 30 entries and 10 more
	}
	for _, s := range longIndexes(f, long) {
		f.Add(true, savedBytes(f, s.from))
	}
	f.Fuzz(func(t *testing.T, useLong bool, data []byte) {
		db := db
		if useLong {
			db = long
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Load(bytes.NewReader(data), db)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); grew > limit {
			t.Fatalf("Load allocated %d bytes for a %d-byte input (limit %d)", grew, len(data), limit)
		}
		short, shortErr := Load(&io.LimitedReader{R: iotest.HalfReader(bytes.NewReader(data)), N: int64(len(data))}, db)
		if (err == nil) != (shortErr == nil) || sentinel(err) != sentinel(shortErr) {
			t.Fatalf("Load = %v, through short reads %v", err, shortErr)
		}
		if err != nil {
			if sentinel(err) == nil {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if !bytes.Equal(savedBytes(t, s), savedBytes(t, short)) {
			t.Fatal("the index loaded through short reads saves other bytes")
		}
		if s.Len() != db.Len() {
			t.Fatalf("loaded a %d-entry index over a %d-entry database", s.Len(), db.Len())
		}
		q := db.Entry(7).F
		for label := -1; label < 3; label++ {
			ms, err := s.Search(q, label, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				l := db.Entry(m.Index)
				d, _ := q.L2Distance(l.F)
				if m.Label != label || l.Y != label || m.Source != l.S || m.Hash != l.H || math.Float64bits(m.Distance) != math.Float64bits(d) {
					t.Fatalf("label %d: match %+v is not database entry %d (%+v) at distance %v", label, m, m.Index, l, d)
				}
			}
		}
	})
}

// ixHead is where a CTIX file's first label starts: past the header and
// the binding.
const ixHead = 4 + 1 + 1 + 4 + 4 + 8

// sentinel is the typed error err carries, nil for none.
func sentinel(err error) error {
	for _, typed := range []error{ErrCorrupt, ErrVersionMismatch, ErrForeignIndex, fingerprint.ErrDimMismatch} {
		if errors.Is(err, typed) {
			return typed
		}
	}
	return nil
}

// TestLoadLongRecords: FuzzLoadIndex's long seeds load, through whole
// and short reads, as the index of the database they were saved over —
// inverted lists longer than the reader's buffer take the one read path
// every array takes.
func TestLoadLongRecords(t *testing.T) {
	long := longDB(t)
	for _, c := range longIndexes(t, long) {
		raw, want := savedBytes(t, c.from), savedBytes(t, c.want)
		for _, r := range []io.Reader{bytes.NewReader(raw), &io.LimitedReader{R: iotest.HalfReader(bytes.NewReader(raw)), N: int64(len(raw))}} {
			s, err := Load(r, long)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !bytes.Equal(savedBytes(t, s), want) {
				t.Fatalf("%s: the loaded index saves other bytes", c.name)
			}
		}
	}
}

// longIndexes are the indexes of longDB whose files reach the reader's
// bounds: from is saved, and want is what loading it over longDB (and
// catching up) must give.
func longIndexes(t testing.TB, long *fingerprint.DB) []struct {
	name       string
	from, want Searcher
} {
	t.Helper()
	ivf, err := TrainIVF(long, IVFOptions{Nlist: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := TrainIVFPQ(long, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 1, Seed: 1}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name       string
		from, want Searcher
	}{
		{"a prefix bound through a 60 000-byte source", NewFlat(long.Snapshot(longSources)), NewFlat(long)},
		{"a list longer than the buffer", ivf, ivf},
		{"positions and codes longer than the buffer", pq, pq},
	}
}

// longSources is how many entries of longDB come first, of label 1, one
// of them with a source of 60 000 bytes.
const longSources = 3

// longDB is a database at dim 4 whose files reach the edges of the
// reader Load reads through (ixBufSize): label 1's longSources entries,
// one with a source nearly the longest the framing carries, then label
// 0 with more entries than the buffer holds list positions or codes.
func longDB(t testing.TB) *fingerprint.DB {
	t.Helper()
	const dim = 4
	db, err := fingerprint.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 1))
	n := longSources + ixBufSize/4 + 100
	for i := 0; i < n; i++ {
		l := fingerprint.Linkage{F: randomFP(rng, dim), Y: 0, S: "dave"}
		l.H[0], l.H[1] = byte(i), byte(i>>8)
		if i < longSources {
			l.Y = 1
		}
		if i == 1 {
			l.S = strings.Repeat("s", 60_000)
		}
		if err := db.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// flippedRowDB is a copy of db whose entry i's row has one bit flipped:
// the same labels, sources and hashes, another row.
func flippedRowDB(t testing.TB, db *fingerprint.DB, i int) *fingerprint.DB {
	return rebuilt(t, db, func(j int, l fingerprint.Linkage) fingerprint.Linkage {
		if j == i {
			l.F = slices.Clone(l.F)
			l.F[0] = math.Float32frombits(math.Float32bits(l.F[0]) ^ 1)
		}
		return l
	})
}
