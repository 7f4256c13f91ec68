package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
)

// goldenDigests pins the serialised bytes of seeded trained indexes.
// They were recorded on the commit before the row kernel replaced the
// per-pair path (PR 12) and must never change without an intentional
// format or training-algorithm break: trained centroids, codebooks,
// codes and list membership are part of the bit-stability contract, so
// an index built by any build of this repository loads and answers
// identically under any other. The rows ivf/dim16/+ and ivfpq/dim24/m2/+
// were recorded on the commit before Append's nearest-centroid and
// nearest-codeword searches moved to planar tables.
//
// The shapes cover every branch training takes: subvector widths below
// the 8-wide block (dsub 3, 4, 5), at it (8) and past it with a tail
// (12); classes with fewer samples than PQ centroids (duplicate seeds,
// so empty clusters are re-seeded and the rng draw order matters); and
// entries appended after training (the encode path of Append and WAL
// replay), to IVF and to IVFPQ at both kinds of subvector width, one of
// them to a label the index has never seen. The "sizes" rows train
// classes of unequal size in one database, largest first and smallest
// first — one past parallelScanThreshold, one under the sample cap, one
// below nlist — so that
// scratch one class leaves behind for the next reads as changed bytes;
// they were recorded before training reused one workspace across labels.
var goldenDigests = map[string]string{
	"ivf/dim16":               "cd072be7ac23de12e86e229818e320a70fa028efcfdeed2d12b780929b244772",
	"ivf/dim16/+":             "49695fd6b7f13feffca4c5c807aa1c7d41c369f691de72a87f10c45c7866d565",
	"ivfpq/dim64/m16":         "622dc72a83537852a0f05a70d64fe896e974aae4cb9bbb4151ba6c8d32fca1de",
	"ivfpq/dim24/m2":          "e5e556bf37d480d4bb6e34b0f9f07b8f43cc4c30f105317acac1a126073d6f0a",
	"ivfpq/dim24/m2/+":        "b16cb31549f359ae1c5df2da751843d8fc2b05dc926d9824ebef98a69f8a042b",
	"ivfpq/dim16/m2":          "8d9cc54a50dae1b736ac654c387a245f173f5dbb40271a757259b583321b8659",
	"ivfpq/dim6/m2":           "8818d6aaa0d5266eadab42474207d406d82344c5efaf704f2e8415fe20758c7b",
	"ivfpq/dim10/m2":          "4905ab52dce675b3e88e707c8eea2524859901ff916ab7fd7de092e8dbbaf717",
	"ivfpq/dim64/m16/+":       "17b55f5710379443c462acc53b5081acdfa50f8df48c1d39e48d54a5a755eb52",
	"ivf/sizes/large-small":   "c2ede7390ac0558f14e485b617d99c7f13328bd2915e1825d22827a847370ceb",
	"ivf/sizes/small-large":   "4e45dfb5150ec3099b50dda3f5f3c6a8d180e87ed793d682e1c27dd0f4144806",
	"ivfpq/sizes/large-small": "1cf9bc88cf31d4bb04b717b89bd029ac1715f9457ae95499d23f3602fc818ade",
	"ivfpq/sizes/small-large": "30451e60e1688e17fb0fac7908c34d114ad642585aea162235dd410abdf29c0f",
}

// goldenCase is one pinned index: the database it is trained over, the
// trainer, and the linkages appended after training, at the database
// indices past the database's last.
type goldenCase struct {
	db      *fingerprint.DB
	train   func(*fingerprint.DB) (Appender, error)
	appends []fingerprint.Linkage
}

// goldenCases returns the pinned indexes by name.
func goldenCases(t testing.TB) map[string]goldenCase {
	t.Helper()
	ivf := func(db *fingerprint.DB) (Appender, error) {
		return TrainIVF(db, IVFOptions{Nlist: 8, Nprobe: 3, Seed: 4})
	}
	out := map[string]goldenCase{
		"ivf/dim16":   {db: populatedDB(t, 16, 600, 3, 77), train: ivf},
		"ivf/dim16/+": {db: populatedDB(t, 16, 600, 3, 77), train: ivf, appends: goldenAppends(16, 3, 40)},
	}
	for name, sizes := range map[string][]int{
		"large-small": {9000, 200, 6},
		"small-large": {6, 200, 9000},
	} {
		out["ivf/sizes/"+name] = goldenCase{db: sizedDB(t, 16, 21, sizes), train: ivf}
	}
	for name, sizes := range map[string][]int{
		"large-small": {9000, 300, 4},
		"small-large": {4, 300, 9000},
	} {
		out["ivfpq/sizes/"+name] = goldenCase{
			db: sizedDB(t, 16, 22, sizes),
			train: func(db *fingerprint.DB) (Appender, error) {
				return TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 6, Seed: 9}, M: 4})
			},
		}
	}
	for _, c := range []struct {
		name            string
		dim, n, classes int
		m, appends      int
	}{
		{"ivfpq/dim64/m16", 64, 800, 2, 16, 0},    // dsub 4, ≥ pqKs samples per class
		{"ivfpq/dim24/m2", 24, 500, 3, 2, 0},      // dsub 12, < pqKs samples: re-seeds
		{"ivfpq/dim24/m2/+", 24, 500, 3, 2, 40},   // appended entries encoded at dsub 12
		{"ivfpq/dim16/m2", 16, 300, 1, 2, 0},      // dsub 8
		{"ivfpq/dim6/m2", 6, 400, 2, 2, 0},        // dsub 3
		{"ivfpq/dim10/m2", 10, 300, 1, 2, 0},      // dsub 5
		{"ivfpq/dim64/m16/+", 64, 300, 1, 16, 40}, // appended entries at dsub 4
	} {
		m := c.m
		out[c.name] = goldenCase{
			db: populatedDB(t, c.dim, c.n, c.classes, uint64(c.dim)),
			train: func(db *fingerprint.DB) (Appender, error) {
				return TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 6, Seed: 9}, M: m})
			},
			appends: goldenAppends(c.dim, c.classes, c.appends),
		}
	}
	return out
}

// sizedDB returns a database holding sizes[y] random entries of label
// y, the labels interleaved until each runs out.
func sizedDB(t testing.TB, dim int, seed uint64, sizes []int) *fingerprint.DB {
	t.Helper()
	db, err := fingerprint.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	left := slices.Clone(sizes)
	for i := 0; slices.Max(left) > 0; i++ {
		y := i % len(left)
		if left[y] == 0 {
			continue
		}
		left[y]--
		var h [32]byte
		h[0], h[1] = byte(i), byte(i>>8)
		if err := db.Add(fingerprint.Linkage{F: randomFP(rng, dim), Y: y, S: "erin", H: h}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// goldenAppends draws n fingerprints to append, labelled with the
// database's classes in turn, the last with a label it does not have.
func goldenAppends(dim, classes, n int) []fingerprint.Linkage {
	rng := rand.New(rand.NewPCG(5, uint64(dim)))
	out := make([]fingerprint.Linkage, n)
	for i := range out {
		y := i % classes
		if i == n-1 {
			y = classes
		}
		out[i] = fingerprint.Linkage{F: randomFP(rng, dim), Y: y, S: "dave"}
	}
	return out
}

// build trains the case under the active kernel — and, viaLoad, saves
// the trained index and loads it back over its database — then appends.
func (c goldenCase) build(t testing.TB, viaLoad bool) Searcher {
	t.Helper()
	x, err := c.train(c.db)
	if err != nil {
		t.Fatal(err)
	}
	if viaLoad {
		var buf bytes.Buffer
		if err := Save(&buf, x); err != nil {
			t.Fatal(err)
		}
		s, err := Load(bytes.NewReader(buf.Bytes()), c.db)
		if err != nil {
			t.Fatal(err)
		}
		x = s.(Appender)
	}
	for i, l := range c.appends {
		if err := x.Append(c.db.Len()+i, l); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return x
}

func saveDigest(t testing.TB, s Searcher) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestTrainDeterministicAcrossProcs trains an IVF index and an IVFPQ
// index over a class big enough that every training pass fans out across
// workers (9 000 points, above parallelScanThreshold: Lloyd's assignment
// of the whole sample, the full assignment pass, PQ training and the
// encoding pass) under GOMAXPROCS 1, 2 and 8 and every kernel
// implementation, and holds each Save to one pinned digest. The
// assignments may come back from any core in any order; the Lloyd sums
// take the points in sample order, so the bytes may not move. CI runs
// the index suite under -tags noasm too, where the portable path alone
// must reach the same digests.
func TestTrainDeterministicAcrossProcs(t *testing.T) {
	want := map[string]string{
		"ivf":   "47041870ca0ba79f56c2dd4b7ff32fadea7628544e8e68fd4c3dd99089614796",
		"ivfpq": "644a41b8109301ae40861317d815342a234c02a7440f3c9a12170888c0bb1f9f",
	}
	db := populatedDB(t, 8, 9000, 1, 11)
	o := IVFOptions{Nlist: 64, Iters: 2, SampleCap: 9000, Seed: 3}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			ivf, err := TrainIVF(db, o)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 16, Iters: 2, SampleCap: 9000, Seed: 3}, M: 2})
			if err != nil {
				t.Fatal(err)
			}
			for name, x := range map[string]Searcher{"ivf": ivf, "ivfpq": pq} {
				if got := saveDigest(t, x); got != want[name] {
					t.Errorf("impl %q, GOMAXPROCS %d: %s digest %s, pinned %s", im.Name, procs, name, got, want[name])
				}
			}
		}
		restore()
	}
}

// TestGoldenIndexDigest trains the pinned indexes under every
// registered kernel implementation and holds each one's Save bytes to
// the recorded digest: the kernel may get faster, the bytes it trains
// may not move. Each is also built via Load — trained, saved, loaded
// back over its database, then appended to — which must reach the same
// bytes: an Append to a loaded index finds the same lists and codes as
// one to the index training left.
func TestGoldenIndexDigest(t *testing.T) {
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range goldenCases(t) {
			want := goldenDigests[name]
			if got := saveDigest(t, c.build(t, false)); got != want {
				t.Errorf("impl %q: %s digest %s, golden %s", im.Name, name, got, want)
			}
			if got := saveDigest(t, c.build(t, true)); got != want {
				t.Errorf("impl %q: %s via Load: digest %s, golden %s", im.Name, name, got, want)
			}
		}
		restore()
	}
}
