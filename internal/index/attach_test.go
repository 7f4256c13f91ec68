package index

import (
	"bytes"
	"errors"
	"math/rand/v2"
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

// savedAs returns the file build writes over db, as a daemon's
// -save-index would.
func savedAs(t *testing.T, build func(*fingerprint.DB) (Searcher, error), db *fingerprint.DB) []byte {
	t.Helper()
	s, err := build(db)
	if err != nil {
		t.Fatal(err)
	}
	return savedBytes(t, s)
}

// TestAttachRefusesForeignIndex: an index is checked entry by entry
// against the database it is loaded over or attached to — read from a
// file, or trained over another database. Another database of the same
// size and shape is refused with ErrForeignIndex — other rows under the
// same labels, sources and hashes, or one other source — as are a
// database shorter than the index and an index that holds an entry
// twice, and a refused index is left as it was. The one exception is an
// IVFPQ file loaded over other rows: it carries codes, not rows, so
// there is nothing to compare them with, and it loads as the index of
// that database.
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
			file := savedAs(t, k.build, db)
			load := func(over *fingerprint.DB) (Searcher, error) { return Load(bytes.NewReader(file), over) }
			attached := func(s Searcher, err error) func(*fingerprint.DB) (Searcher, error) {
				if err != nil {
					t.Fatal(err)
				}
				return func(over *fingerprint.DB) (Searcher, error) { return s, Attach(s, over) }
			}
			for _, c := range []struct {
				name    string
				db      *fingerprint.DB
				refused bool
			}{
				{"other rows", otherRows, true},
				{"one other source", otherSource, true},
				{"a shorter database", db.Snapshot(n - 1), true},
				{"its own database", db, false},
			} {
				for _, way := range []struct {
					name string
					bind func(*fingerprint.DB) (Searcher, error)
				}{
					{"loaded over it", load},
					{"loaded, then attached", attached(load(db))},
					{"trained, then attached", attached(k.build(db))},
				} {
					refused := c.refused && !(c.db == otherRows && k.name == "ivfpq" && way.name == "loaded over it")
					s, err := way.bind(c.db)
					if refused != errors.Is(err, ErrForeignIndex) || !refused && err != nil {
						t.Fatalf("%s, %s: %v, refused %v", c.name, way.name, err, refused)
					}
					if s != nil && s.Len() != n {
						t.Fatalf("%s, %s: the index holds %d entries, want %d", c.name, way.name, s.Len(), n)
					}
				}
			}
			twice, err := load(db)
			if err != nil {
				t.Fatal(err)
			}
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

// TestAttachCatchesUp: an index saved over the first 180 entries of the
// 240-entry database it is a prefix of — what a restart finds when a
// snapshot landed the database file but not the index file — takes the
// other 60 by Append, whether it is loaded over the grown database or
// loaded over its own and attached to it, and finds each of them at
// distance 0. The database is built by Add, and read by LoadDB and grown
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
	for _, k := range attachKinds {
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
				attached := loadedOver(db.Snapshot(saved))
				if err := Attach(attached, db); err != nil {
					t.Fatal(err)
				}
				for _, s := range []Searcher{loadedOver(db), attached} {
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
