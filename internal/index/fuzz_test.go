package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"caltrain/internal/fingerprint"
)

// FuzzLoadIndex holds the CTIX decoder, reading over a database, to "the
// database's index or a typed sentinel, never a panic, never more memory
// than the input's own size class": seeded from saved flat, IVF and IVFPQ
// files, their truncations, headers that claim 50 million labels or
// entries, a file of another database of the same shape and a file of a
// prefix of the database. An index that loads must be the database's:
// as long as it, and every match it answers carries the database's label,
// source and hash at Match.Index and the exact distance to its row.
func FuzzLoadIndex(f *testing.F) {
	db := populatedDB(f, 4, 30, 2, 3)
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
	for _, train := range kinds {
		raw := saved(train, db)
		f.Add(raw)
		f.Add(raw[:len(raw)-7])
		// nlabels sits at offset 10, the first label's entry count at 18
		// (flat, IVF) and its list count at 26 (IVFPQ).
		for _, off := range []int{10, 18, 26} {
			lying := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(lying[off:], 50_000_000)
			f.Add(lying)
		}
	}
	for _, train := range kinds {
		f.Add(saved(train, populatedDB(f, 4, 30, 2, 4)))
		f.Add(saved(train, db.Snapshot(20)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Load(bytes.NewReader(data), db)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); grew > limit {
			t.Fatalf("Load allocated %d bytes for a %d-byte input (limit %d)", grew, len(data), limit)
		}
		if err != nil {
			for _, typed := range []error{ErrCorrupt, ErrVersionMismatch, ErrForeignIndex, fingerprint.ErrDimMismatch} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped error: %v", err)
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
