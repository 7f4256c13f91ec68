package index

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"caltrain/internal/fingerprint"
)

// bindKinds builds each backend over a database, with settings small
// enough for a few hundred entries (ivfpq at dim 8, M 4: planar
// codebooks).
var bindKinds = []struct {
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

// savedAs returns the file build writes over db, as a daemon keeping
// its training would.
func savedAs(t *testing.T, build func(*fingerprint.DB) (Searcher, error), db *fingerprint.DB) []byte {
	t.Helper()
	s, err := build(db)
	if err != nil {
		t.Fatal(err)
	}
	return savedBytes(t, s)
}

// TestAttachRefusesForeignIndex: an index file is bound by Digest to
// the database it is loaded over. Another database of the same size and
// shape is refused with ErrForeignIndex — other rows under the same
// labels, sources and hashes, one other source, or one entry held twice
// — as is a database shorter than the index. An IVFPQ file, which
// carries codes and not rows, is bound to the rows all the same.
func TestAttachRefusesForeignIndex(t *testing.T) {
	const dim, n = 8, 240
	db := populatedDB(t, dim, n, 3, 5)
	otherRows := populatedDB(t, dim, n, 3, 6)
	otherSource := rebuilt(t, db, func(i int, l fingerprint.Linkage) fingerprint.Linkage {
		if i == 100 {
			l.S = "mallory"
		}
		return l
	})
	twice := rebuilt(t, db, func(i int, l fingerprint.Linkage) fingerprint.Linkage {
		if i == 3 {
			return db.Entry(0)
		}
		return l
	})
	for _, k := range bindKinds {
		t.Run(k.name, func(t *testing.T) {
			file := savedAs(t, k.build, db)
			for _, c := range []struct {
				name    string
				db      *fingerprint.DB
				refused bool
			}{
				{"other rows", otherRows, true},
				{"one other source", otherSource, true},
				{"one entry held twice", twice, true},
				{"a shorter database", db.Snapshot(n - 1), true},
				{"its own database", db, false},
			} {
				s, err := Load(bytes.NewReader(file), c.db)
				if c.refused != errors.Is(err, ErrForeignIndex) || !c.refused && err != nil {
					t.Fatalf("%s: %v, refused %v", c.name, err, c.refused)
				}
				if s != nil && s.Len() != n {
					t.Fatalf("%s: the index holds %d entries, want %d", c.name, s.Len(), n)
				}
			}
		})
	}
}

// rebase makes s, trained or loaded over a prefix of db, db's index:
// Rebase, then catchUp, as Load does past the entries a file holds.
func rebase(t testing.TB, s Searcher, db *fingerprint.DB) {
	t.Helper()
	ap := s.(Appender)
	ap.Rebase(db)
	if err := catchUp(ap, db); err != nil {
		t.Fatal(err)
	}
}

// rebuilt is a new database of db's entries, each as edit returns it.
func rebuilt(t testing.TB, db *fingerprint.DB, edit func(i int, l fingerprint.Linkage) fingerprint.Linkage) *fingerprint.DB {
	t.Helper()
	out, err := fingerprint.NewDB(db.Dim())
	if err != nil {
		t.Fatal(err)
	}
	for i := range db.Len() {
		if err := out.Add(edit(i, db.Entry(i))); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestAttachCatchesUp: an index saved over the first 180 entries of the
// 240-entry database it is a prefix of — what a restart finds when a
// snapshot landed the database file but not the index file — takes the
// other 60 by Append, whether it is loaded over the grown database or
// loaded over its own, rebased onto the grown one and caught up, and
// finds each of them at distance 0. The database is built by Add, and read by LoadDB and grown
// by Add, so that a bucket is cut back from a private base and from an
// aliased class block with rows stored by Add behind it.
func TestAttachCatchesUp(t *testing.T) {
	const dim, n, saved = 8, 240, 180
	added, loaded, _ := addedAndLoaded(t, dim, 200, 3, false, 5)
	rng := rand.New(rand.NewPCG(5, 5))
	for _, db := range []*fingerprint.DB{added, loaded} {
		for i := db.Len(); i < n; i++ {
			if err := db.Add(fingerprint.Linkage{F: randomFP(rng, dim), Y: i % 3, S: "late", H: [32]byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range bindKinds {
		t.Run(k.name, func(t *testing.T) {
			for _, db := range []*fingerprint.DB{added, loaded} {
				file := savedAs(t, k.build, db.Snapshot(saved))
				loadedOver := func(over *fingerprint.DB) Searcher {
					s, err := Load(bytes.NewReader(file), over)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				rebased := loadedOver(db.Snapshot(saved))
				rebase(t, rebased, db)
				for _, s := range []Searcher{loadedOver(db), rebased} {
					if s.Len() != n {
						t.Fatalf("caught-up index holds %d entries, want %d", s.Len(), n)
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
				}
			}
		})
	}
}
