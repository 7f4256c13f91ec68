package shard

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
)

// testDB builds a database of n clustered fingerprints spread across
// `labels` classes.
func testDB(t testing.TB, dim, n, labels int) *fingerprint.DB {
	t.Helper()
	db, err := fingerprint.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, uint64(n)))
	for i, f := range index.SynthFingerprints(rng, n, dim, 4, 0.2) {
		if err := db.Add(fingerprint.Linkage{F: f, Y: i % labels, S: "p" + string(rune('a'+i%3))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestHashMapDeterministicAndInRange(t *testing.T) {
	m, err := NewHashMap(4)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := NewHashMap(4)
	for y := -5; y < 1000; y++ {
		s := m.Shard(y)
		if s < 0 || s >= 4 {
			t.Fatalf("label %d assigned to shard %d", y, s)
		}
		if s != m2.Shard(y) {
			t.Fatalf("hash assignment not deterministic for label %d", y)
		}
	}
	// All shards get some labels over a modest label universe.
	seen := make(map[int]bool)
	for y := 0; y < 64; y++ {
		seen[m.Shard(y)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 shards own labels", len(seen))
	}
}

func TestRangeMapAssignment(t *testing.T) {
	m, err := NewRangeMap([]int64{0, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[int]int{-3: 0, 0: 0, 9: 0, 10: 1, 19: 1, 20: 2, 1000: 2}
	for y, want := range cases {
		if got := m.Shard(y); got != want {
			t.Errorf("Shard(%d) = %d, want %d", y, got, want)
		}
	}
	if _, err := NewRangeMap([]int64{5, 5}); err == nil {
		t.Fatal("non-ascending starts accepted")
	}
	if _, err := NewRangeMap(nil); err == nil {
		t.Fatal("empty starts accepted")
	}
}

func TestRangeMapForCountsBalances(t *testing.T) {
	// 6 labels with skewed counts; 3 shards must each own ≥1 label and
	// the split must roughly balance entries.
	counts := map[int]int{0: 100, 1: 100, 2: 100, 3: 100, 4: 100, 5: 100}
	m, err := RangeMapForCounts(counts, 3)
	if err != nil {
		t.Fatal(err)
	}
	per := make(map[int]int)
	for y, c := range counts {
		per[m.Shard(y)] += c
	}
	for s := 0; s < 3; s++ {
		if per[s] != 200 {
			t.Fatalf("uniform counts split unevenly: %v", per)
		}
	}
	// Fewer labels than shards is an error, not a silent empty shard.
	if _, err := RangeMapForCounts(map[int]int{0: 1, 1: 1}, 3); err == nil {
		t.Fatal("2 labels over 3 shards accepted")
	}
}

func TestMapSaveLoadRoundTrip(t *testing.T) {
	for _, m := range []*Map{
		mustHashMap(t, 8),
		mustRangeMap(t, []int64{-10, 0, 50, 51}),
	} {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := LoadMap(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumShards() != m.NumShards() || got.Strategy() != m.Strategy() {
			t.Fatalf("round trip: %d/%v vs %d/%v", got.NumShards(), got.Strategy(), m.NumShards(), m.Strategy())
		}
		for y := -20; y < 100; y++ {
			if got.Shard(y) != m.Shard(y) {
				t.Fatalf("reloaded %v map disagrees at label %d", m.Strategy(), y)
			}
		}
	}
}

func TestLoadMapRejectsCorruption(t *testing.T) {
	m := mustHashMap(t, 4)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	badMagic := append([]byte("XXXX"), good[4:]...)
	if _, err := LoadMap(bytes.NewReader(badMagic)); err == nil {
		t.Fatal("bad magic accepted")
	}
	badVersion := append([]byte(nil), good...)
	badVersion[4] = 99
	if _, err := LoadMap(bytes.NewReader(badVersion)); err == nil {
		t.Fatal("unsupported version accepted")
	}
	badStrategy := append([]byte(nil), good...)
	badStrategy[5] = 7
	if _, err := LoadMap(bytes.NewReader(badStrategy)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := LoadMap(bytes.NewReader(good[:6])); err == nil {
		t.Fatal("truncated map accepted")
	}
	// Hostile shard count must error before allocating.
	huge := append([]byte(nil), good...)
	huge[6], huge[7], huge[8], huge[9] = 0xff, 0xff, 0xff, 0xff
	if _, err := LoadMap(bytes.NewReader(huge)); err == nil {
		t.Fatal("implausible shard count accepted")
	}
}

func TestSplitDBPartitions(t *testing.T) {
	db := testDB(t, 8, 300, 7)
	m := mustHashMap(t, 3)
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	for sid, p := range parts {
		total += p.Len()
		// Every entry landed on its owning shard.
		for _, y := range p.Labels() {
			if m.Shard(y) != sid {
				t.Fatalf("label %d found on shard %d, owner is %d", y, sid, m.Shard(y))
			}
		}
	}
	if total != db.Len() {
		t.Fatalf("split lost entries: %d of %d", total, db.Len())
	}
	// Shard-local search agrees with the global DB on matches' provenance
	// and distances (indices are shard-local by design).
	q := db.Entry(0).F
	want, err := db.Query(q, db.Entry(0).Y, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parts[m.Shard(db.Entry(0).Y)].Query(q, db.Entry(0).Y, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("shard-local query returned %d matches, global %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Distance != want[i].Distance || got[i].Source != want[i].Source || got[i].Hash != want[i].Hash {
			t.Fatalf("match %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func mustHashMap(t testing.TB, n int) *Map {
	t.Helper()
	m, err := NewHashMap(n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustRangeMap(t testing.TB, starts []int64) *Map {
	t.Helper()
	m, err := NewRangeMap(starts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLoadMapSentinels: map-loading failures carry the shared typed
// sentinels so daemons branch with errors.Is, not message matching.
func TestLoadMapSentinels(t *testing.T) {
	m := mustHashMap(t, 4)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	futureVersion := append([]byte(nil), good...)
	futureVersion[4] = 99
	if _, err := LoadMap(bytes.NewReader(futureVersion)); !errors.Is(err, fingerprint.ErrVersionMismatch) {
		t.Fatalf("future version: %v", err)
	}
	badMagic := append([]byte(nil), good...)
	copy(badMagic, "NOPE")
	if _, err := LoadMap(bytes.NewReader(badMagic)); !errors.Is(err, fingerprint.ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := LoadMap(bytes.NewReader(good[:5])); !errors.Is(err, fingerprint.ErrCorrupt) {
		t.Fatalf("truncated: %v", err)
	}
	badStrategy := append([]byte(nil), good...)
	badStrategy[5] = 77
	if _, err := LoadMap(bytes.NewReader(badStrategy)); !errors.Is(err, fingerprint.ErrCorrupt) {
		t.Fatalf("unknown strategy: %v", err)
	}
}
