package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"caltrain/internal/fingerprint"
)

// linkedFingerprints builds the two-level workload accountability
// queries actually see: class modes (as in SynthFingerprints)
// containing tight linkage groups — each group is a cluster of
// near-duplicate fingerprints tracing back to one source, the
// structure a duplicated or poisoned training set induces. Group
// centers are drawn from a modes-mode mixture with per-coordinate
// noise sigma; each of the n outputs jitters around its group's
// center (group i%ngroups) by jitter << sigma and is re-normalized.
// A query drawn as a fresh group member has its group siblings as
// exact nearest neighbours, separated from the rest of the mode by
// the sigma-scale spread — ground truth with a real margin, unlike a
// unimodal cloud where the "true" top-10 is an arbitrary sample of
// near-equidistant points.
func linkedFingerprints(rng *rand.Rand, n, dim, modes, groupSize int, sigma, jitter float64) []fingerprint.Fingerprint {
	ngroups := (n + groupSize - 1) / groupSize
	centers := SynthFingerprints(rng, ngroups, dim, modes, sigma)
	fps := make([]fingerprint.Fingerprint, n)
	for i := range fps {
		c := centers[i%ngroups]
		f := make(fingerprint.Fingerprint, dim)
		var s float64
		for j := range f {
			f[j] = c[j] + float32(jitter*rng.NormFloat64())
			s += float64(f[j]) * float64(f[j])
		}
		inv := float32(1 / math.Sqrt(s))
		for j := range f {
			f[j] *= inv
		}
		fps[i] = f
	}
	return fps
}

// TestIVFPQRecall is the acceptance bar for the product-quantized
// backend: at 100k entries (20k under -short), recall@10 against the
// exact scan stays at or above 0.90 while the index holds at most 1/8
// of Flat's float32 footprint — the memory saving is the whole point of
// storing M-byte codes instead of dim×4-byte vectors. The workload is
// the linkage-group distribution the system is built for (queries
// retrieve a group of near-duplicate fingerprints); the memory bound
// forces M = dim/4 subquantizers (2 bits per dimension), at which an
// unstructured unimodal cloud has no recoverable top-10 — the exact
// neighbour set there is an arbitrary sample of near-equidistant
// points below the quantization noise floor.
func TestIVFPQRecall(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 20000
	}
	const nq = 50
	rng := rand.New(rand.NewPCG(15, 1))
	fps := linkedFingerprints(rng, n+nq, 64, 64, 12, 0.15, 0.05)
	db, err := fingerprint.NewDB(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fps[:n] {
		if err := db.Add(fingerprint.Linkage{F: f, Y: 0, S: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	flat := NewFlat(db)

	pqBytes, flatBytes := pq.VectorBytes(), flat.VectorBytes()
	t.Logf("memory: ivfpq %d bytes (%.1f/entry), flat %d bytes (%.1f/entry), ratio %.3f",
		pqBytes, float64(pqBytes)/float64(n), flatBytes, float64(flatBytes)/float64(n),
		float64(pqBytes)/float64(flatBytes))
	if pqBytes > flatBytes/8 {
		t.Fatalf("ivfpq holds %d bytes, more than 1/8 of flat's %d", pqBytes, flatBytes)
	}

	queries := fps[n:]
	labels := make([]int, len(queries))
	r, err := Recall(flat, pq, queries, labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("IVFPQ recall@10 = %.3f (n=%d, m=%d, nprobe=%d)", r, n, pq.M(), pq.Nprobe())
	// Deterministic given the seeds and identical under every kernel
	// implementation (the ADC bit-stability contract).
	if r < 0.90 {
		t.Fatalf("recall@10 = %.3f, want ≥ 0.90", r)
	}
	// Widening the probe ray can only help; tightening it must degrade
	// gracefully, not catastrophically.
	pq.SetNprobe(1)
	r1, err := Recall(flat, pq, queries, labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r1 > r+1e-9 {
		t.Fatalf("nprobe=1 recall %.3f exceeds wider probe %.3f", r1, r)
	}
}

// TestIVFPQFullProbeRanksByADC: with every list probed, IVFPQ still
// answers from quantized codes — results approximate the exact scan but
// must carry the right metadata and respect k.
func TestIVFPQFullProbeRanksByADC(t *testing.T) {
	db := populatedDB(t, 8, 500, 3, 7)
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 8, Nprobe: 8, Seed: 1}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 10; trial++ {
		q := randomFP(rng, 8)
		label := trial % 3
		got, err := pq.Search(q, label, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 7 {
			t.Fatalf("got %d matches, want 7", len(got))
		}
		for i, m := range got {
			if m.Label != label {
				t.Fatalf("match %d has label %d, want %d", i, m.Label, label)
			}
			if i > 0 && got[i-1].Distance > m.Distance {
				t.Fatalf("matches out of order: %v then %v", got[i-1].Distance, m.Distance)
			}
			if e := db.Entry(m.Index); e.S != m.Source || e.H != m.Hash {
				t.Fatalf("match %d provenance mismatch: %+v vs db entry %+v", i, m, e)
			}
		}
	}
}

// TestIVFPQValidation mirrors the other backends' argument contract.
func TestIVFPQValidation(t *testing.T) {
	db := populatedDB(t, 4, 40, 2, 5)
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 2, Seed: 3}, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Search(make(fingerprint.Fingerprint, 3), 0, 5); !errors.Is(err, fingerprint.ErrDimMismatch) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if _, err := pq.Search(make(fingerprint.Fingerprint, 4), 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if out, err := pq.Search(make(fingerprint.Fingerprint, 4), 99, 5); err != nil || len(out) != 0 {
		t.Fatalf("unknown class: %v %v", out, err)
	}
	if err := pq.Append(db.Len(), fingerprint.Linkage{F: make(fingerprint.Fingerprint, 3)}); !errors.Is(err, fingerprint.ErrDimMismatch) {
		t.Fatalf("bad append: %v", err)
	}
}

// TestTrainIVFPQErrors: empty databases and an M that does not divide
// the dimension fail at train time, not at first query.
func TestTrainIVFPQErrors(t *testing.T) {
	empty, _ := fingerprint.NewDB(4)
	if _, err := TrainIVFPQ(empty, IVFPQOptions{}); err == nil {
		t.Fatal("empty DB accepted")
	}
	db := populatedDB(t, 8, 30, 1, 5)
	if _, err := TrainIVFPQ(db, IVFPQOptions{M: 3}); err == nil {
		t.Fatal("m=3 over dim 8 accepted")
	}
}

// TestIVFPQBatchMatchesSearch: SearchBatch must agree with per-query
// Search exactly — same ADC tables, same tie-breaks.
func TestIVFPQBatchMatchesSearch(t *testing.T) {
	db := populatedDB(t, 8, 600, 3, 13)
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 6, Nprobe: 2, Seed: 5}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(12, 12))
	queries := make([]fingerprint.Fingerprint, 20)
	labels := make([]int, 20)
	ks := make([]int, 20)
	for i := range queries {
		queries[i] = randomFP(rng, 8)
		labels[i] = i % 4 // includes an absent label
		ks[i] = 6
	}
	batch, errs := pq.SearchBatch(queries, labels, ks)
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := pq.Search(queries[i], labels[i], 6)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, batch[i], want)
	}
}

// TestIVFPQRecallAfterAppend is the online-ingest guard for the
// quantized backend: appends encode against the frozen codebooks (new
// labels get a degenerate exact class), drift accounts them, and the
// retrain the ingest path triggers restores clean recall.
func TestIVFPQRecallAfterAppend(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 3000
	}
	appendN := n / 5 // 20%
	const nq = 50
	rng := rand.New(rand.NewPCG(25, 1))
	fps := linkedFingerprints(rng, n+appendN+nq, 64, 64, 12, 0.15, 0.05)
	db, err := fingerprint.NewDB(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fps[:n] {
		if err := db.Add(fingerprint.Linkage{F: f, Y: 0, S: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fps[n : n+appendN] {
		idx := db.Len()
		if err := db.Add(fingerprint.Linkage{F: f, Y: 0, S: "new"}); err != nil {
			t.Fatal(err)
		}
		if err := pq.Append(idx, fingerprint.Linkage{F: f, Y: 0, S: "new"}); err != nil {
			t.Fatal(err)
		}
	}
	if pq.Len() != n+appendN {
		t.Fatalf("ivfpq len %d, want %d", pq.Len(), n+appendN)
	}
	wantDrift := float64(appendN) / float64(n+appendN)
	if d := pq.Drift(); d < wantDrift-1e-9 || d > wantDrift+1e-9 {
		t.Fatalf("drift %v, want %v", d, wantDrift)
	}

	flat := NewFlat(db)
	queries := fps[n+appendN:]
	labels := make([]int, len(queries))
	r, err := Recall(flat, pq, queries, labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("post-append recall@10 = %.3f (n=%d +%d appended, m=%d, nprobe=%d)", r, n, appendN, pq.M(), pq.Nprobe())
	if r < 0.88 {
		t.Fatalf("post-append recall@10 = %.3f, want ≥ 0.88", r)
	}

	fresh, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Seed: 7}})
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
	if r2 < 0.90 {
		t.Fatalf("post-retrain recall@10 = %.3f, want ≥ 0.90", r2)
	}
}

// TestIVFPQAppendNewLabel: an append under a label the training set
// never saw creates the degenerate exact class — its centroid IS the
// vector, so a query for that label finds it at distance 0.
func TestIVFPQAppendNewLabel(t *testing.T) {
	db := populatedDB(t, 8, 60, 2, 9)
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 2, Seed: 3}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := randomFP(rand.New(rand.NewPCG(2, 2)), 8)
	if err := pq.Append(db.Len(), fingerprint.Linkage{F: f, Y: 77, S: "first"}); err != nil {
		t.Fatal(err)
	}
	got, err := pq.Search(f, 77, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Source != "first" || got[0].Distance != 0 {
		t.Fatalf("new-label search: %+v", got)
	}
}

// TestSaveLoadIVFPQ: the roundtrip preserves parameters, codes, and
// codebooks exactly — a reloaded index answers bit-identically.
func TestSaveLoadIVFPQ(t *testing.T) {
	db := populatedDB(t, 8, 400, 2, 33)
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 10, Nprobe: 3, Seed: 7}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, pq); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	re, ok := got.(*IVFPQ)
	if !ok {
		t.Fatalf("reloaded kind %s", got.Kind())
	}
	if re.Nprobe() != pq.Nprobe() || re.M() != pq.M() || re.Len() != pq.Len() || re.Dim() != pq.Dim() {
		t.Fatalf("reloaded params nprobe=%d m=%d len=%d dim=%d", re.Nprobe(), re.M(), re.Len(), re.Dim())
	}
	if re.VectorBytes() != pq.VectorBytes() {
		t.Fatalf("reloaded footprint %d, want %d", re.VectorBytes(), pq.VectorBytes())
	}
	rng := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 8; trial++ {
		q := randomFP(rng, 8)
		want, _ := pq.Search(q, trial%2, 5)
		out, err := re.Search(q, trial%2, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, out, want)
	}
}

// TestLoadRejectsCorruptIVFPQ: truncation and an m that contradicts the
// dimension fail with ErrCorrupt instead of loading an index that would
// mis-stride every code row.
func TestLoadRejectsCorruptIVFPQ(t *testing.T) {
	db := populatedDB(t, 8, 60, 2, 41)
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 2, Seed: 1}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, pq); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for cut := 1; cut < 40; cut += 7 {
		if _, err := Load(bytes.NewReader(raw[:len(raw)-cut])); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	// The m field sits after magic(4) version(1) kind(1) dim(4)
	// nlabels(4) nprobe(4).
	const mOff = 18
	for _, badM := range []uint32{0, 3, 9, 1 << 30} {
		patched := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(patched[mOff:], badM)
		if _, err := Load(bytes.NewReader(patched)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("m=%d: %v, want ErrCorrupt", badM, err)
		}
	}
	// Zeroed nprobe is metadata that lies, like the IVF case.
	patched := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(patched[14:], 0)
	if _, err := Load(bytes.NewReader(patched)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nprobe=0: %v, want ErrCorrupt", err)
	}
}

// TestIVFPQDefaultM: the auto-picked subquantizer count is the largest
// of {16, 8, 4, 2, 1} dividing the dimension.
func TestIVFPQDefaultM(t *testing.T) {
	for _, c := range []struct{ dim, want int }{
		{64, 16}, {32, 16}, {16, 16}, {8, 8}, {12, 4}, {6, 2}, {7, 1},
	} {
		got := (IVFPQOptions{}).withDefaults(c.dim)
		if got.M != c.want {
			t.Errorf("dim %d: default m %d, want %d", c.dim, got.M, c.want)
		}
	}
}

// linkedClassDB is the trainers' benchmark input: one class of n
// linkage-group fingerprints at the shape of a bench shard label (dim
// 64, groups of 12).
func linkedClassDB(b *testing.B, n int) *fingerprint.DB {
	db, err := fingerprint.NewDB(64)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range linkedFingerprints(rand.New(rand.NewPCG(15, 1)), n, 64, 64, 12, 0.15, 0.05) {
		if err := db.Add(fingerprint.Linkage{F: f, Y: 0, S: "s"}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkTrainIVF times the whole IVF build — sample, Lloyd rounds,
// full assignment pass, inverted lists — for one class the size of a
// bench shard label (25 000 × 64, 158 lists; 2 500 under -short).
// Nearly all of it is ArgminRows of a 64-float row against the
// centroid table, which is what the screened argmin exists for.
func BenchmarkTrainIVF(b *testing.B) {
	n := 25000
	if testing.Short() {
		n = 2500
	}
	db := linkedClassDB(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainIVF(db, IVFOptions{Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainIVFPQ times the whole IVFPQ build — coarse k-means, PQ
// codebook training, the encoding pass — for one class at the shape of
// a bench shard label (dim 64, M 16: 4-float subvectors), 2 500 entries
// (500 under -short). Nearly all of it is ArgminRows over 256-row
// codebooks, which is what the rows kernel exists for.
func BenchmarkTrainIVFPQ(b *testing.B) {
	n := 2500
	if testing.Short() {
		n = 500
	}
	db := linkedClassDB(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Seed: 2}}); err != nil {
			b.Fatal(err)
		}
	}
}
