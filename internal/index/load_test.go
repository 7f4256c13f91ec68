package index

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// TestLoadIndexAllocBudget: Load allocates what the index it returns
// owns — codes, centroids, lists, a database index per entry — and at
// most 1 MiB besides, for every backend. An entry read into a buffer of
// its own, or a row copied where the database holds it, would not fit:
// at 20 000 × 64 the rows alone are 5 MiB.
func TestLoadIndexAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, db, _ := addedAndLoaded(t, 64, 20_000, 4, true, 19)
	for _, k := range budgetKinds {
		s, err := k.train(db)
		if err != nil {
			t.Fatal(err)
		}
		raw := savedBytes(t, s)
		_, before := liveHeap()
		loaded, err := Load(bytes.NewReader(raw), db)
		_, after := liveHeap()
		if err != nil {
			t.Fatal(err)
		}
		owned := loaded.(interface{ OwnedBytes() int64 }).OwnedBytes()
		got, limit := after-before, uint64(owned)+1<<20
		t.Logf("%s: Load allocated %.2f MB, the index owns %.2f MB", k.name, float64(got)/1e6, float64(owned)/1e6)
		if got > limit {
			t.Errorf("%s: Load allocated %d bytes, budget %d (owned %d + 1 MiB)", k.name, got, limit, owned)
		}
	}
}

// BenchmarkLoadIndex reads each backend's saved file over its database
// (20 000 × 64 in 4 labels; 2 000 under -short), reporting allocations
// and time per entry.
func BenchmarkLoadIndex(b *testing.B) {
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	_, db, _ := addedAndLoaded(b, 64, n, 4, true, 19)
	for _, k := range budgetKinds {
		b.Run(k.name, func(b *testing.B) {
			s, err := k.train(db)
			if err != nil {
				b.Fatal(err)
			}
			raw := savedBytes(b, s)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Load(bytes.NewReader(raw), db); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			entries := float64(b.N) * float64(n)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/entries, "allocs/entry")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/entries, "ns/entry")
		})
	}
}

// TestLoadRefusesMisplacedEntries: every entry of these files is the
// database's, but not where Load would put it. Load builds a label's
// bucket from the database's class, so an entry must sit at the position
// the class gives it — two swapped entries are refused — and the entries
// must be the database's first ones: a file missing a label between
// them is refused rather than caught up with entries it already holds.
func TestLoadRefusesMisplacedEntries(t *testing.T) {
	db := populatedDB(t, 8, 90, 3, 11) // Add-built: the buckets own their rows
	swapped := NewFlat(db)
	b := swapped.buckets[1]
	b.idx[0], b.idx[1] = b.idx[1], b.idx[0]
	r0, r1 := b.vecs.at(0), b.vecs.at(1)
	for j := range r0 {
		r0[j], r1[j] = r1[j], r0[j]
	}
	gap := NewFlat(db)
	delete(gap.buckets, 0)
	gap.total -= db.Len() / 3
	for name, s := range map[string]Searcher{"two swapped entries": swapped, "a missing label": gap} {
		if _, err := Load(bytes.NewReader(savedBytes(t, s)), db); !errors.Is(err, ErrForeignIndex) {
			t.Errorf("%s: Load = %v, want ErrForeignIndex", name, err)
		}
	}
}
