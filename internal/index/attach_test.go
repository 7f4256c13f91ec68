package index

import (
	"bytes"
	"errors"
	"testing"

	"caltrain/internal/fingerprint"
)

// attachKinds builds each backend over a database, with settings small
// enough for a few hundred entries (ivfpq at dim 8, M 4: planar
// codebooks).
var attachKinds = []struct {
	name  string
	build func(*fingerprint.DB) (Searcher, error)
}{
	{"flat", func(db *fingerprint.DB) (Searcher, error) { return NewFlat(db), nil }},
	{"ivf", func(db *fingerprint.DB) (Searcher, error) {
		return TrainIVF(db, IVFOptions{Nlist: 4, Nprobe: 4, Seed: 7})
	}},
	{"ivfpq", func(db *fingerprint.DB) (Searcher, error) {
		return TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 4, Nprobe: 4, Seed: 7}, M: 4})
	}},
}

// savedAs returns a function that reads back the index build makes over
// db, as a daemon's -load-index would.
func savedAs(t *testing.T, build func(*fingerprint.DB) (Searcher, error), db *fingerprint.DB) func() Searcher {
	t.Helper()
	s, err := build(db)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := Save(&blob, s); err != nil {
		t.Fatal(err)
	}
	return func() Searcher {
		t.Helper()
		loaded, err := Load(bytes.NewReader(blob.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	}
}

// TestAttachRefusesForeignIndex: an index read from a file is checked
// entry by entry against the database it is attached to. Another
// database of the same size and shape is refused with ErrForeignIndex —
// other rows under the same labels, sources and hashes by Flat and IVF
// (IVFPQ keeps no rows to compare, only codes), one other source by all
// three — as are a database shorter than the index and an index that
// holds an entry twice, and a refused index is left as it was.
func TestAttachRefusesForeignIndex(t *testing.T) {
	const dim, n = 8, 240
	db := populatedDB(t, dim, n, 3, 5)
	otherRows := populatedDB(t, dim, n, 3, 6)
	otherSource, err := fingerprint.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		l := db.Entry(i)
		if i == 100 {
			l.S = "mallory"
		}
		if err := otherSource.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range attachKinds {
		t.Run(k.name, func(t *testing.T) {
			load := savedAs(t, k.build, db)
			for _, c := range []struct {
				name    string
				db      *fingerprint.DB
				refused bool
			}{
				{"other rows", otherRows, k.name != "ivfpq"},
				{"one other source", otherSource, true},
				{"a shorter database", db.Snapshot(n - 1), true},
				{"its own database", db, false},
			} {
				s := load()
				err := Attach(s, c.db)
				if c.refused != errors.Is(err, ErrForeignIndex) || !c.refused && err != nil {
					t.Fatalf("%s: Attach = %v, refused %v", c.name, err, c.refused)
				}
				if s.Len() != n {
					t.Fatalf("%s: attached index holds %d entries, want %d", c.name, s.Len(), n)
				}
			}
			twice := load()
			switch x := twice.(type) {
			case *Flat:
				x.buckets[0].idx[1] = x.buckets[0].idx[0]
			case *IVF:
				x.labels[0].b.idx[1] = x.labels[0].b.idx[0]
			case *IVFPQ:
				l := x.labels[0].lists[0]
				l.idx[1] = l.idx[0]
			}
			if err := Attach(twice, db); !errors.Is(err, ErrForeignIndex) {
				t.Fatalf("an entry held twice: Attach = %v", err)
			}
		})
	}
}

// TestAttachCatchesUp: an index saved over the first 200 entries and
// attached to the 240-entry database it is a prefix of — what a restart
// finds when a snapshot landed the database file but not the index file
// — takes the other 40 by Append, and finds each of them at distance 0.
func TestAttachCatchesUp(t *testing.T) {
	const dim, n, saved = 8, 240, 200
	db := populatedDB(t, dim, n, 3, 5)
	for _, k := range attachKinds {
		t.Run(k.name, func(t *testing.T) {
			s := savedAs(t, k.build, db.Snapshot(saved))()
			if err := Attach(s, db); err != nil {
				t.Fatal(err)
			}
			if s.Len() != n {
				t.Fatalf("attached index holds %d entries, want %d", s.Len(), n)
			}
			for i := saved; i < n; i++ {
				l := db.Entry(i)
				got, err := s.Search(l.F, l.Y, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0].Index != i || got[0].Distance != 0 || got[0].Source != l.S || got[0].Hash != l.H {
					t.Fatalf("entry %d after catch-up: %+v", i, got)
				}
			}
		})
	}
}
