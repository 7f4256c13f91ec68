package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"caltrain/internal/fingerprint"
)

// FuzzLoadIndex holds the CTIX decoder to "an index or a typed sentinel,
// never a panic, never more memory than the input's own size class":
// seeded from saved flat, IVF and IVFPQ files, their truncations and
// headers that claim 50 million labels or entries. An index that loads
// must answer a search; a loaded IVFPQ must also survive AttachDB —
// refused, or accepted and searched through the exact stage.
func FuzzLoadIndex(f *testing.F) {
	db := populatedDB(f, 4, 30, 2, 3)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 3, Seed: 1}, M: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []Searcher{NewFlat(db), ivf, pq} {
		raw := savedBytes(f, s)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); grew > limit {
			t.Fatalf("Load allocated %d bytes for a %d-byte input (limit %d)", grew, len(data), limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		q := make(fingerprint.Fingerprint, s.Dim())
		search := func() {
			for label := -1; label < 3; label++ {
				if _, err := s.Search(q, label, 3); err != nil {
					t.Fatal(err)
				}
			}
		}
		search()
		if x, ok := s.(*IVFPQ); ok && x.AttachDB(db) == nil {
			search()
		}
	})
}
