package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
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
// exact scan stays at or above 0.995 (the two-stage search measures
// 1.000; the ADC stage alone measured 0.90) while the index holds at
// most 1/8
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
	if r < 0.995 {
		t.Fatalf("recall@10 = %.3f, want ≥ 0.995", r)
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
	if r < 0.995 {
		t.Fatalf("post-append recall@10 = %.3f, want ≥ 0.995", r)
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
	if r2 < 0.99 {
		t.Fatalf("post-retrain recall@10 = %.3f, want ≥ 0.99", r2)
	}
}

// TestIVFPQRecallUnderDuplicateAppends is the forensic case as a
// regression test: near-duplicates of indexed linkages — what a
// duplicated or poisoned contribution looks like — are appended under a
// frozen codebook until they outnumber the trained entries, and recall@9
// must hold. The ADC stage alone decays here (the end-to-end benchmark
// read 0.894 → 0.832 as such appends accumulated), because codes trained
// on the old residuals tell a group's members apart ever less well; the
// exact stage does not care. A copy saved and loaded back over the
// database must read the same.
func TestIVFPQRecallUnderDuplicateAppends(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 2400
	}
	const nq = 100
	rng := rand.New(rand.NewPCG(35, 1))
	// Groups of 25: the first n fingerprints put 12 members of every
	// group in the trained index, the next n+n/10 append 13 more each.
	fps := linkedFingerprints(rng, 2*n+n/10+nq, 64, 64, 25, 0.15, 0.05)
	db, err := fingerprint.NewDB(64)
	if err != nil {
		t.Fatal(err)
	}
	add := func(f fingerprint.Fingerprint, s string) int {
		if err := db.Add(fingerprint.Linkage{F: f, Y: 0, S: s}); err != nil {
			t.Fatal(err)
		}
		return db.Len() - 1
	}
	for _, f := range fps[:n] {
		add(f, "s")
	}
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fps[n : len(fps)-nq] {
		idx := add(f, "dup")
		if err := pq.Append(idx, db.Entry(idx)); err != nil {
			t.Fatal(err)
		}
	}
	if d := pq.Drift(); d < 0.5 {
		t.Fatalf("drift %.2f: the appended linkages should outnumber the trained ones", d)
	}
	reloaded, err := Load(bytes.NewReader(savedBytes(t, pq)), db)
	if err != nil {
		t.Fatal(err)
	}
	flat := NewFlat(db)
	queries := fps[len(fps)-nq:]
	labels := make([]int, len(queries))
	r, err := Recall(flat, pq, queries, labels, 9)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := Recall(flat, reloaded, queries, labels, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The nearest neighbour alone is where shortlist's floor earns its
	// keep: 4·k candidates read 0.81 here, the floor of 32 reads 1.000.
	r1, err := Recall(flat, pq, queries, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("with %d trained + %d appended near-duplicates: recall@9 %.3f (saved and loaded: %.3f), recall@1 %.3f", n, db.Len()-n, r, r0, r1)
	if r < 0.97 || r1 < 0.97 || r0 != r {
		t.Fatalf("under duplicate appends recall@9 = %.3f (loaded %.3f) and recall@1 = %.3f, want ≥ 0.97", r, r0, r1)
	}
}

// TestIVFPQDistancesExact: whatever the ADC stage shortlists, every
// returned Distance is the exact L2 distance — bit for bit what DB.Query
// reports for that entry — under every kernel implementation, for
// trained and appended entries, from Search and SearchBatch alike.
func TestIVFPQDistancesExact(t *testing.T) {
	const dim, classes = 16, 3
	db := populatedDB(t, dim, 600, classes, 51)
	rng := rand.New(rand.NewPCG(52, 1))
	fs, labels, ks := make([]fingerprint.Fingerprint, 24), make([]int, 24), make([]int, 24)
	for i := range fs {
		fs[i], labels[i], ks[i] = randomFP(rng, dim), i%classes, 1+i%13
	}
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := TrainIVFPQ(db.Snapshot(540), IVFPQOptions{IVFOptions: IVFOptions{Nlist: 8, Nprobe: 3, Seed: 4}, M: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 540; i < db.Len(); i++ {
			if err := pq.Append(i, db.Entry(i)); err != nil {
				t.Fatal(err)
			}
		}
		batch, errs := pq.SearchBatch(fs, labels, ks)
		for i := range fs {
			single, err := pq.Search(fs[i], labels[i], ks[i])
			if err != nil || errs[i] != nil {
				t.Fatal(err, errs[i])
			}
			if !reflect.DeepEqual(batch[i], single) {
				t.Fatalf("impl %s query %d: SearchBatch %+v, Search %+v", im.Name, i, batch[i], single)
			}
			all, err := db.Query(fs[i], labels[i], db.Len())
			if err != nil {
				t.Fatal(err)
			}
			exact := make(map[int]float64, len(all))
			for _, m := range all {
				exact[m.Index] = m.Distance
			}
			for j, m := range single {
				if want, ok := exact[m.Index]; !ok || math.Float64bits(m.Distance) != math.Float64bits(want) {
					t.Fatalf("impl %s query %d match %d (entry %d): distance %x, DB.Query %x",
						im.Name, i, j, m.Index, math.Float64bits(m.Distance), math.Float64bits(want))
				}
				if j > 0 && single[j-1].Distance > m.Distance {
					t.Fatalf("impl %s query %d: matches out of order", im.Name, i)
				}
			}
		}
		restore()
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

// TestLoadParentSavedIVFPQ: testdata/pr19.ivfpq.ctix was written by the
// commit before PQ codebooks became dimension-major in memory (PR 19's
// build: populatedDB(8, 200, 2, 20), Nlist 4, Nprobe 2, Seed 9, M 2, so
// 4-float subvectors, the width the bench serves). The layout is
// a resident matter only: under every kernel implementation that file
// must load, re-save to the same bytes, be exactly what training the
// same database writes today, and — loaded over that database — answer
// what the index trained today does.
func TestLoadParentSavedIVFPQ(t *testing.T) {
	file, err := os.ReadFile("testdata/pr19.ivfpq.ctix")
	if err != nil {
		t.Fatal(err)
	}
	db := populatedDB(t, 8, 200, 2, 20)
	rng := rand.New(rand.NewPCG(20, 20))
	queries := make([]fingerprint.Fingerprint, 12)
	for i := range queries {
		queries[i] = randomFP(rng, 8)
	}
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Load(bytes.NewReader(file), db)
		if err != nil {
			t.Fatalf("impl %q: %v", im.Name, err)
		}
		loaded := got.(*IVFPQ)
		if !bytes.Equal(savedBytes(t, loaded), file) {
			t.Errorf("impl %q: the parent's file re-saves to different bytes", im.Name)
		}
		trained, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 4, Nprobe: 2, Seed: 9}, M: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(savedBytes(t, trained), file) {
			t.Errorf("impl %q: training the same database no longer writes the parent's bytes", im.Name)
		}
		answers := func(x *IVFPQ) (out [][]fingerprint.Match) {
			for i, q := range queries {
				ms, err := x.Search(q, i%2, 5)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, ms)
			}
			return out
		}
		if got, want := answers(loaded), answers(trained); !reflect.DeepEqual(got, want) {
			t.Errorf("impl %q: loaded answers %+v, trained %+v", im.Name, got, want)
		}
		restore()
	}
}

// TestSaveLoadIVFPQ: the roundtrip preserves parameters, codes, and
// codebooks exactly, and the index loaded over its database answers
// Search and SearchBatch bit-identically to the trained one, carrying
// no linkage of its own. A database that is not the indexed one — other
// entries, too few, another dimension — is refused.
func TestSaveLoadIVFPQ(t *testing.T) {
	db := populatedDB(t, 8, 400, 2, 33)
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 10, Nprobe: 3, Seed: 7}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	saved := savedBytes(t, pq)
	other := populatedDB(t, 8, 400, 3, 33) // same sources and hashes, other labels
	wrongDim, _ := fingerprint.NewDB(4)
	for _, c := range []struct {
		name string
		db   *fingerprint.DB
		want error
	}{
		{"a database with other entries", other, ErrForeignIndex},
		{"a database shorter than the index", db.Snapshot(300), ErrForeignIndex},
		{"a dim-4 database", wrongDim, fingerprint.ErrDimMismatch},
	} {
		if _, err := Load(bytes.NewReader(saved), c.db); !errors.Is(err, c.want) {
			t.Fatalf("loaded over %s: %v, want %v", c.name, err, c.want)
		}
	}
	got, err := Load(bytes.NewReader(saved), db)
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
	if re.VectorBytes() != pq.VectorBytes() || re.OwnedBytes() != pq.OwnedBytes() {
		t.Fatalf("reloaded footprint %d (owned %d), want %d (%d)", re.VectorBytes(), re.OwnedBytes(), pq.VectorBytes(), pq.OwnedBytes())
	}
	if !bytes.Equal(savedBytes(t, re), saved) {
		t.Fatal("a loaded index saves different bytes than the trained one")
	}
	for _, c := range re.labels {
		for _, l := range c.lists {
			if l.kept() != l.n() || l.db != db {
				t.Fatalf("a loaded list carries %d linkages of its own", l.n()-l.kept())
			}
		}
	}

	rng := rand.New(rand.NewPCG(8, 8))
	queries := make([]fingerprint.Fingerprint, 8)
	labels, ks := make([]int, len(queries)), make([]int, len(queries))
	for i := range queries {
		queries[i], labels[i], ks[i] = randomFP(rng, 8), i%2, 5
		want, _ := pq.Search(queries[i], i%2, 5)
		out, err := re.Search(queries[i], i%2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("loaded, query %d: %+v, want the trained index's %+v", i, out, want)
		}
	}
	wantBatch, _ := pq.SearchBatch(queries, labels, ks)
	gotBatch, _ := re.SearchBatch(queries, labels, ks)
	if !reflect.DeepEqual(gotBatch, wantBatch) {
		t.Fatal("loaded: SearchBatch differs from the trained index's")
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
		if _, err := Load(bytes.NewReader(raw[:len(raw)-cut]), db); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	// The m field sits after magic(4) version(1) kind(1) dim(4)
	// nlabels(4) nprobe(4).
	const mOff = 18
	for _, badM := range []uint32{0, 3, 9, 1 << 30} {
		patched := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(patched[mOff:], badM)
		if _, err := Load(bytes.NewReader(patched), db); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("m=%d: %v, want ErrCorrupt", badM, err)
		}
	}
	// Zeroed nprobe is metadata that lies, like the IVF case.
	patched := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(patched[14:], 0)
	if _, err := Load(bytes.NewReader(patched), db); !errors.Is(err, ErrCorrupt) {
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
// Nearly all of it is ArgminPlanarBatch of 64-float points against the
// planar centroid table, which is what the screened argmin exists for.
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

// TestTrainAllocBudget: a training call allocates what the index it
// returns owns plus one workspace (kmeans), sized by its largest label
// and reused across labels, subquantizers and passes — never a label's
// whole residual sample, nor scratch per label. The workspace bound is
// per entry of that label: IVF's permutation, storage-order slots,
// Lloyd-round and full assignments, 16 B; IVFPQ's bucket identities,
// list arena and sample identity besides, 28 B, plus one subquantizer's
// sample, 4·dsub B; the Lloyd sums and counts of the widest table; and
// 64 KiB per worker, for its encoding tile, its pooled gather tile and
// the goroutines of every fan-out. The 256 KiB allowance covers what
// grows with neither: class and list headers, the fan-outs' closures.
// Measured over a loaded database, whose class blocks the buckets alias.
func TestTrainAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	perClass := []int{2_500}
	if !testing.Short() {
		perClass = append(perClass, 25_000)
	}
	const dim, m = 64, 16
	for _, n := range perClass {
		_, db, _ := addedAndLoaded(t, dim, 4*n, 4, true, 23)
		nlist := IVFOptions{}.withDefaults(n).Nlist
		sums := func(k, d int) int { return 8 * k * (d + 1) }
		perWorker := runtime.GOMAXPROCS(0) << 16
		for _, k := range []struct {
			name      string
			train     func(*fingerprint.DB) (Searcher, error)
			workspace int
		}{
			{"ivf", budgetKinds[1].train, 16*n + sums(nlist, dim) + perWorker},
			{"ivfpq", budgetKinds[2].train, (28+4*dim/m)*n + max(sums(nlist, dim), sums(pqKs, dim/m)) + perWorker},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := k.train(db)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			owned := s.(interface{ OwnedBytes() int64 }).OwnedBytes()
			got, limit := after.TotalAlloc-before.TotalAlloc, uint64(owned)+uint64(k.workspace)+256<<10
			t.Logf("%s, 4 × %d: training allocated %.2f MB, the index owns %.2f MB, workspace bound %.2f MB",
				k.name, n, float64(got)/1e6, float64(owned)/1e6, float64(k.workspace)/1e6)
			if got > limit {
				t.Errorf("%s, 4 × %d: training allocated %d bytes, budget %d (owned %d + workspace %d + 256 KiB)",
					k.name, n, got, limit, owned, k.workspace)
			}
		}
	}
}

// BenchmarkTrainIVFPQ times the whole IVFPQ build — coarse k-means, PQ
// codebook training, the encoding pass — for one class at the shape of
// a bench shard label (dim 64, M 16: 4-float subvectors), 2 500 entries
// (500 under -short). Nearly all of it is ArgminPlanarBatch over 256-centroid
// codebooks, which is what the planar kernel exists for.
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

// benchSearch times one k-9 search, with its allocations, on one class
// at the shape the bench's ivfpq shards serve (2 500 × 64; 500 under
// -short): for Flat the whole blocked sweep, for IVF centroid ranking,
// list selection and two gathered lists, for IVFPQ (M 16) two ADC table
// builds and scans and the exact re-rank of the shortlist instead.
func benchSearch(b *testing.B, build func(*fingerprint.DB) (Searcher, error)) {
	n := 2500
	if testing.Short() {
		n = 500
	}
	x, err := build(linkedClassDB(b, n))
	if err != nil {
		b.Fatal(err)
	}
	queries := linkedFingerprints(rand.New(rand.NewPCG(16, 1)), 64, 64, 64, 12, 0.15, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Search(queries[i%len(queries)], 0, 9); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "search_us")
}

func BenchmarkFlatSearch(b *testing.B) {
	benchSearch(b, func(db *fingerprint.DB) (Searcher, error) { return NewFlat(db), nil })
}

func BenchmarkIVFSearch(b *testing.B) {
	benchSearch(b, func(db *fingerprint.DB) (Searcher, error) { return TrainIVF(db, IVFOptions{Seed: 2}) })
}

func BenchmarkIVFPQSearch(b *testing.B) {
	benchSearch(b, func(db *fingerprint.DB) (Searcher, error) {
		return TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Seed: 2}})
	})
}
