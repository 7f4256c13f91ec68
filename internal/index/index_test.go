package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"caltrain/internal/fingerprint"
)

func randomFP(rng *rand.Rand, dim int) fingerprint.Fingerprint {
	f := make(fingerprint.Fingerprint, dim)
	var s float64
	for i := range f {
		f[i] = float32(rng.NormFloat64())
		s += float64(f[i]) * float64(f[i])
	}
	// L2-normalize like real fingerprints.
	if s > 0 {
		inv := float32(1 / sqrt64(s))
		for i := range f {
			f[i] *= inv
		}
	}
	return f
}

func sqrt64(s float64) float64 {
	x := s
	for i := 0; i < 40; i++ {
		x = 0.5 * (x + s/x)
	}
	return x
}

func populatedDB(t testing.TB, dim, n, classes int, seed uint64) *fingerprint.DB {
	t.Helper()
	db, err := fingerprint.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := 0; i < n; i++ {
		var h [32]byte
		h[0], h[1] = byte(i), byte(i>>8)
		err := db.Add(fingerprint.Linkage{
			F: randomFP(rng, dim),
			Y: i % classes,
			S: []string{"alice", "bob", "carol"}[i%3],
			H: h,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func sameMatches(t *testing.T, got, want []fingerprint.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index {
			t.Fatalf("match %d: index %d, want %d", i, got[i].Index, want[i].Index)
		}
		if got[i].Source != want[i].Source || got[i].Label != want[i].Label || got[i].Hash != want[i].Hash {
			t.Fatalf("match %d: metadata mismatch: %+v vs %+v", i, got[i], want[i])
		}
		if d := got[i].Distance - want[i].Distance; d > 1e-9 || d < -1e-9 {
			t.Fatalf("match %d: distance %v, want %v", i, got[i].Distance, want[i].Distance)
		}
	}
}

// TestFlatMatchesExact: the heap-select flat index must return exactly
// what the reference linear scan returns, ordering and ties included.
func TestFlatMatchesExact(t *testing.T) {
	db := populatedDB(t, 8, 300, 5, 3)
	flat := NewFlat(db)
	if flat.Len() != db.Len() || flat.Dim() != db.Dim() {
		t.Fatalf("flat size %d/%d, want %d/%d", flat.Len(), flat.Dim(), db.Len(), db.Dim())
	}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		q := randomFP(rng, 8)
		label := int(seed % 6) // includes an absent label
		k := 1 + int(seed%15)
		want, err1 := db.Query(q, label, k)
		got, err2 := flat.Search(q, label, k)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Index != want[i].Index {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFlatMatchesExactAllTies: with every entry of a class at the same
// distance, both sides must fall back on the database index alone.
func TestFlatMatchesExactAllTies(t *testing.T) {
	db, err := fingerprint.NewDB(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		l := fingerprint.Linkage{F: fingerprint.Fingerprint{0, 1, 0, 0}, Y: i % 2, S: []string{"a", "b", "c"}[i%3], H: [32]byte{byte(i)}}
		if err := db.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	flat := NewFlat(db)
	for _, k := range []int{1, 8, 45, 60} {
		want, err := db.Query(fingerprint.Fingerprint{1, 0, 0, 0}, 1, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := flat.Search(fingerprint.Fingerprint{1, 0, 0, 0}, 1, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("k %d: flat %+v, linear scan %+v", k, got, want)
		}
		for i, m := range want {
			if m.Index != 2*i+1 {
				t.Fatalf("k %d: match %d is entry %d, want ties in index order", k, i, m.Index)
			}
		}
	}
}

// TestFlatParallelScanMatchesExact exercises the chunked parallel path
// (class size above parallelScanThreshold).
func TestFlatParallelScanMatchesExact(t *testing.T) {
	n := parallelScanThreshold*2 + 17
	db := populatedDB(t, 16, n, 1, 11)
	flat := NewFlat(db)
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 5; trial++ {
		q := randomFP(rng, 16)
		want, err := db.Query(q, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := flat.Search(q, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, got, want)
	}
}

func TestFlatValidation(t *testing.T) {
	db := populatedDB(t, 4, 10, 2, 5)
	flat := NewFlat(db)
	if _, err := flat.Search(make(fingerprint.Fingerprint, 3), 0, 5); !errors.Is(err, fingerprint.ErrDimMismatch) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if _, err := flat.Search(make(fingerprint.Fingerprint, 4), 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if out, err := flat.Search(make(fingerprint.Fingerprint, 4), 99, 5); err != nil || len(out) != 0 {
		t.Fatalf("unknown class: %v %v", out, err)
	}
}

// TestIVFFullProbeMatchesExact: with nprobe = nlist every list is
// scanned, so IVF must agree with the exact scan bit-for-bit.
func TestIVFFullProbeMatchesExact(t *testing.T) {
	db := populatedDB(t, 8, 500, 3, 7)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 8, Nprobe: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 10; trial++ {
		q := randomFP(rng, 8)
		label := trial % 3
		want, err := db.Query(q, label, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ivf.Search(q, label, 7)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, got, want)
	}
}

// TestIVFRecall asserts the acceptance bar: recall@10 ≥ 0.95 against the
// exact scan on the same data distribution the scaling bench uses
// (clustered embeddings, queries from the same mixture — a misprediction's
// fingerprint lives in the same embedding space as the training set).
func TestIVFRecall(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 5000
	}
	const nq = 50
	rng := rand.New(rand.NewPCG(15, 1))
	fps := SynthFingerprints(rng, n+nq, 64, 64, 0.15)
	db, err := fingerprint.NewDB(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fps[:n] {
		if err := db.Add(fingerprint.Linkage{F: f, Y: 0, S: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	ivf, err := TrainIVF(db, IVFOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	flat := NewFlat(db)
	queries := fps[n:]
	labels := make([]int, len(queries))
	r, err := Recall(flat, ivf, queries, labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("IVF recall@10 = %.3f (n=%d, nprobe=%d)", r, n, ivf.Nprobe())
	// Deterministic given the seeds, and identical under every kernel
	// implementation (the bit-stability contract): measures 0.992 at
	// n=20000 and 0.990 under -short.
	if r < 0.98 {
		t.Fatalf("recall@10 = %.3f, want ≥ 0.98", r)
	}
	// Tightening nprobe trades recall for speed but must stay sane.
	ivf.SetNprobe(1)
	r1, err := Recall(flat, ivf, queries, labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r1 > r+1e-9 {
		t.Fatalf("nprobe=1 recall %.3f exceeds wider probe %.3f", r1, r)
	}
}

func TestIVFDegenerateTinyClass(t *testing.T) {
	db := populatedDB(t, 4, 6, 3, 21) // two entries per class
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 16, Nprobe: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := randomFP(rand.New(rand.NewPCG(5, 5)), 4)
	want, _ := db.Query(q, 1, 5)
	got, err := ivf.Search(q, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameMatches(t, got, want)
}

// TestNearestLists: the coarse selection returns the n smallest centroid
// distances nearest first, gives a tie to the lower list, and returns
// every list when n covers them.
func TestNearestLists(t *testing.T) {
	for _, c := range []struct {
		d2s  []float64
		n    int
		want []int32
	}{
		{[]float64{5, 1, 4, 1, 3}, 3, []int32{1, 3, 4}},
		{[]float64{2, 2, 2, 2}, 2, []int32{0, 1}},
		{[]float64{9, 8, 7, 6, 5}, 1, []int32{4}},
		{[]float64{3, 1, 2}, 3, []int32{0, 1, 2}},
		{[]float64{3, 1, 2}, 7, []int32{0, 1, 2}},
	} {
		var buf [2]int32
		if got := nearestLists(c.d2s, c.n, buf[:0]); !slices.Equal(got, c.want) {
			t.Errorf("nearestLists(%v, %d) = %v, want %v", c.d2s, c.n, got, c.want)
		}
	}
	rng := rand.New(rand.NewPCG(3, 3))
	d2s := make([]float64, 300)
	for i := range d2s {
		d2s[i] = float64(rng.IntN(40)) // many ties
	}
	order := make([]int32, len(d2s))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return d2s[order[a]] < d2s[order[b]] })
	for _, n := range []int{1, 2, 31, 32, 33, 299} {
		if got := nearestLists(d2s, n, nil); !slices.Equal(got, order[:n]) {
			t.Errorf("n=%d: %v, want the stable sort's prefix %v", n, got, order[:n])
		}
	}
}

// TestInvertedListsCapClipped pins the layout TrainIVF hands out: the
// lists of a class are sub-slices of one arena, each with capacity equal
// to its length, so appending to a list moves THAT list and leaves the
// rows of the next one alone. Every list gets an append (its own
// centroid is nearest to itself) and every list is re-checked.
func TestInvertedListsCapClipped(t *testing.T) {
	const dim, nlist = 16, 8
	db := populatedDB(t, dim, 600, 1, 5)
	x, err := TrainIVF(db, IVFOptions{Nlist: nlist, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := x.labels[0]
	trained := make([][]int32, nlist)
	for ci, l := range c.lists {
		if cap(l) != len(l) {
			t.Errorf("list %d: len %d, cap %d — an append would run into the next list", ci, len(l), cap(l))
		}
		trained[ci] = slices.Clone(l)
	}
	for ci := 0; ci < nlist; ci++ {
		cen := fingerprint.Fingerprint(c.centroids[ci*dim : (ci+1)*dim])
		if err := x.Append(db.Len(), fingerprint.Linkage{F: cen, Y: 0, S: "late"}); err != nil {
			t.Fatal(err)
		}
	}
	grown := 0
	for ci, l := range c.lists {
		if !slices.Equal(l[:len(trained[ci])], trained[ci]) {
			t.Errorf("list %d changed under an append to another list:\n got %v\nwant %v", ci, l[:len(trained[ci])], trained[ci])
		}
		grown += len(l) - len(trained[ci])
	}
	if grown != nlist {
		t.Errorf("lists grew by %d entries over %d appends", grown, nlist)
	}
}

func TestTrainIVFEmptyDB(t *testing.T) {
	db, _ := fingerprint.NewDB(4)
	if _, err := TrainIVF(db, IVFOptions{}); err == nil {
		t.Fatal("empty DB accepted")
	}
}

func TestSaveLoadFlat(t *testing.T) {
	db := populatedDB(t, 8, 120, 4, 31)
	flat := NewFlat(db)
	var buf bytes.Buffer
	if err := Save(&buf, flat); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != "flat" || got.Len() != flat.Len() || got.Dim() != flat.Dim() {
		t.Fatalf("reloaded %s %d/%d", got.Kind(), got.Len(), got.Dim())
	}
	rng := rand.New(rand.NewPCG(6, 6))
	for trial := 0; trial < 8; trial++ {
		q := randomFP(rng, 8)
		want, _ := flat.Search(q, trial%4, 6)
		out, err := got.Search(q, trial%4, 6)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, out, want)
	}
}

func TestSaveLoadIVF(t *testing.T) {
	db := populatedDB(t, 8, 400, 2, 33)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 10, Nprobe: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ivf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, db)
	if err != nil {
		t.Fatal(err)
	}
	re, ok := got.(*IVF)
	if !ok {
		t.Fatalf("reloaded kind %s", got.Kind())
	}
	if re.Nprobe() != ivf.Nprobe() || re.Len() != ivf.Len() || re.Dim() != ivf.Dim() {
		t.Fatalf("reloaded params nprobe=%d len=%d dim=%d", re.Nprobe(), re.Len(), re.Dim())
	}
	rng := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 8; trial++ {
		q := randomFP(rng, 8)
		want, _ := ivf.Search(q, trial%2, 5)
		out, err := re.Search(q, trial%2, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, out, want)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	db := populatedDB(t, 4, 20, 2, 41)
	var buf bytes.Buffer
	if err := Save(&buf, NewFlat(db)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)-5]), db); err == nil {
		t.Fatal("truncated index accepted")
	}
	bad := append([]byte("XXXX"), raw[4:]...)
	if _, err := Load(bytes.NewReader(bad), db); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := Save(&buf, populatedDB(t, 4, 2, 1, 1)); err == nil {
		t.Fatal("serializing the linear DB should be unsupported")
	}
}

// TestLoadRejectsHostileHeader: implausible dim/count combinations must
// error, not panic or exhaust memory on make([]float32, n*dim).
func TestLoadRejectsHostileHeader(t *testing.T) {
	hostile := func(dim, nlabels, label, n uint32) []byte {
		b := []byte(ixMagic)
		b = append(b, ixVersion, kindFlat)
		b = binary.LittleEndian.AppendUint32(b, dim)
		b = binary.LittleEndian.AppendUint32(b, nlabels)
		b = binary.LittleEndian.AppendUint32(b, n) // the binding: n entries and their digest
		b = binary.LittleEndian.AppendUint32(b, 0)
		b = binary.LittleEndian.AppendUint32(b, label)
		b = binary.LittleEndian.AppendUint32(b, n)
		return b
	}
	db, err := fingerprint.NewDB(64)
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"huge dim":       hostile(2_000_000_000, 1, 0, 10),
		"huge count":     hostile(64, 1, 0, 2_000_000_000),
		"overflow n*dim": hostile(1_000_000, 1, 0, 100_000_000),
		"zero dim":       hostile(0, 1, 0, 10),
	} {
		if _, err := Load(bytes.NewReader(raw), db); err == nil {
			t.Fatalf("%s accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestLoadRejectsInconsistentIVF: structurally valid streams whose IVF
// metadata lies (nprobe 0, lists not partitioning the class) must error
// rather than load an index that silently serves wrong results.
func TestLoadRejectsInconsistentIVF(t *testing.T) {
	db := populatedDB(t, 4, 30, 1, 51)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 3, Nprobe: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ivf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// The nprobe field sits right after the per-label entry section;
	// locate it by re-serializing with a different nprobe and diffing.
	ivf.SetNprobe(1)
	var buf2 bytes.Buffer
	if err := Save(&buf2, ivf); err != nil {
		t.Fatal(err)
	}
	raw2 := buf2.Bytes()
	off := -1
	for i := range raw {
		if raw[i] != raw2[i] {
			off = i
			break
		}
	}
	if off < 0 {
		t.Fatal("could not locate nprobe offset")
	}
	zeroed := append([]byte(nil), raw...)
	copy(zeroed[off:off+4], []byte{0, 0, 0, 0})
	if _, err := Load(bytes.NewReader(zeroed), db); err == nil {
		t.Fatal("nprobe=0 accepted")
	}

	// Truncating one position from the last list leaves the class
	// under-covered; corrupt by rewriting the final list length.
	// Simpler: flip a stored position to duplicate another.
	dup := append([]byte(nil), raw...)
	copy(dup[len(dup)-4:], dup[len(dup)-8:len(dup)-4])
	if _, err := Load(bytes.NewReader(dup), db); err == nil {
		t.Fatal("duplicated list position accepted")
	}
}

// TestIVFRecallAfterAppend is the online-ingest recall guard: appending
// 20% new vectors through Appender (no retrain) must keep recall@10 at
// or above 0.90 on the grown set, the drift gauge must cross the
// default retrain threshold's neighbourhood, and the retrain the ingest
// path would then trigger must restore ≥ 0.95.
func TestIVFRecallAfterAppend(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 3000
	}
	appendN := n / 5 // 20%
	const nq = 50
	rng := rand.New(rand.NewPCG(25, 1))
	fps := SynthFingerprints(rng, n+appendN+nq, 64, 64, 0.15)
	db, err := fingerprint.NewDB(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fps[:n] {
		if err := db.Add(fingerprint.Linkage{F: f, Y: 0, S: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	ivf, err := TrainIVF(db, IVFOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}

	// Online appends: DB and index grow together, quantizer untouched.
	for _, f := range fps[n : n+appendN] {
		idx := db.Len()
		if err := db.Add(fingerprint.Linkage{F: f, Y: 0, S: "new"}); err != nil {
			t.Fatal(err)
		}
		if err := ivf.Append(idx); err != nil {
			t.Fatal(err)
		}
	}
	if ivf.Len() != n+appendN {
		t.Fatalf("ivf len %d, want %d", ivf.Len(), n+appendN)
	}
	wantDrift := float64(appendN) / float64(n+appendN)
	if d := ivf.Drift(); d < wantDrift-1e-9 || d > wantDrift+1e-9 {
		t.Fatalf("drift %v, want %v", d, wantDrift)
	}

	flat := NewFlat(db) // exact reference over the grown database
	queries := fps[n+appendN:]
	labels := make([]int, len(queries))
	r, err := Recall(flat, ivf, queries, labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("post-append recall@10 = %.3f (n=%d +%d appended, nprobe=%d)", r, n, appendN, ivf.Nprobe())
	// Measures 1.000 at n=10000 and 0.990 under -short, on every kernel.
	if r < 0.98 {
		t.Fatalf("post-append recall@10 = %.3f, want ≥ 0.98", r)
	}

	// The drift threshold crossed (0.167 vs the ingest default 0.25
	// scaled — here we assert the mechanism, not the constant): a
	// retrain over the grown database restores full recall.
	fresh, err := TrainIVF(db, IVFOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if d := fresh.Drift(); d != 0 {
		t.Fatalf("fresh index drift %v, want 0", d)
	}
	r2, err := Recall(flat, fresh, queries, labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("post-retrain recall@10 = %.3f", r2)
	// Measures 1.000 at n=10000 and 0.982 under -short, on every kernel.
	if r2 < 0.97 {
		t.Fatalf("post-retrain recall@10 = %.3f, want ≥ 0.97", r2)
	}
}

// TestAppendSearchRace hammers Append and Search concurrently on every
// appendable backend — the interleaving the online ingest path
// creates, run under -race in CI.
func TestAppendSearchRace(t *testing.T) {
	db := populatedDB(t, 8, 400, 4, 61)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ivfpq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 8, Seed: 8}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Appender{NewFlat(db), ivf, ivfpq} {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(g), 9))
				for {
					select {
					case <-stop:
						return
					default:
					}
					q := randomFP(rng, 8)
					if _, err := backend.Search(q, g%4, 5); err != nil {
						t.Error(err)
						return
					}
					backend.Len()
				}
			}(g)
		}
		rng := rand.New(rand.NewPCG(99, 9))
		base := db.Len()
		for i := 0; i < 200; i++ {
			l := fingerprint.Linkage{F: randomFP(rng, 8), Y: i % 6, S: "r"} // includes brand-new labels 4,5
			if err := backend.Append(base+i, l); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		if backend.Len() != base+200 {
			t.Fatalf("%s: len %d, want %d", backend.Kind(), backend.Len(), base+200)
		}
	}
}

// TestAppendMatchesRebuild: an appended Flat index must agree
// bit-for-bit with one rebuilt from scratch over the same database —
// appends lose nothing and corrupt nothing.
func TestAppendMatchesRebuild(t *testing.T) {
	db := populatedDB(t, 8, 150, 3, 71)
	flat := NewFlat(db)
	rng := rand.New(rand.NewPCG(31, 3))
	for i := 0; i < 60; i++ {
		l := fingerprint.Linkage{F: randomFP(rng, 8), Y: i % 5, S: "app"}
		idx := db.Len()
		if err := db.Add(l); err != nil {
			t.Fatal(err)
		}
		if err := flat.Append(idx); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt := NewFlat(db)
	for trial := 0; trial < 20; trial++ {
		q := randomFP(rng, 8)
		label := trial % 6
		want, err := rebuilt.Search(q, label, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := flat.Search(q, label, 7)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, got, want)
	}
	// Appender dimension validation.
	if err := flat.Append(db.Len(), fingerprint.Linkage{F: make(fingerprint.Fingerprint, 3)}); !errors.Is(err, fingerprint.ErrDimMismatch) {
		t.Fatalf("bad append: %v", err)
	}
}
