package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"runtime"
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
// identically under any other.
//
// The shapes cover every branch training takes: subvector widths below
// the 8-wide block (dsub 3, 4, 5), at it (8) and past it with a tail
// (12); classes with fewer samples than PQ centroids (duplicate seeds,
// so empty clusters are re-seeded and the rng draw order matters); and
// entries appended after training (the encode path of Append and WAL
// replay).
var goldenDigests = map[string]string{
	"ivf/dim16":         "cd072be7ac23de12e86e229818e320a70fa028efcfdeed2d12b780929b244772",
	"ivfpq/dim64/m16":   "622dc72a83537852a0f05a70d64fe896e974aae4cb9bbb4151ba6c8d32fca1de",
	"ivfpq/dim24/m2":    "e5e556bf37d480d4bb6e34b0f9f07b8f43cc4c30f105317acac1a126073d6f0a",
	"ivfpq/dim16/m2":    "8d9cc54a50dae1b736ac654c387a245f173f5dbb40271a757259b583321b8659",
	"ivfpq/dim6/m2":     "8818d6aaa0d5266eadab42474207d406d82344c5efaf704f2e8415fe20758c7b",
	"ivfpq/dim10/m2":    "4905ab52dce675b3e88e707c8eea2524859901ff916ab7fd7de092e8dbbaf717",
	"ivfpq/dim64/m16/+": "17b55f5710379443c462acc53b5081acdfa50f8df48c1d39e48d54a5a755eb52",
}

// goldenIndexes trains the pinned indexes under the active kernel.
func goldenIndexes(t testing.TB) map[string]Searcher {
	t.Helper()
	out := make(map[string]Searcher)
	ivf, err := TrainIVF(populatedDB(t, 16, 600, 3, 77), IVFOptions{Nlist: 8, Nprobe: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out["ivf/dim16"] = ivf
	for _, c := range []struct {
		name            string
		dim, n, classes int
		m, appends      int
	}{
		{"ivfpq/dim64/m16", 64, 800, 2, 16, 0},    // dsub 4, ≥ pqKs samples per class
		{"ivfpq/dim24/m2", 24, 500, 3, 2, 0},      // dsub 12, < pqKs samples: re-seeds
		{"ivfpq/dim16/m2", 16, 300, 1, 2, 0},      // dsub 8
		{"ivfpq/dim6/m2", 6, 400, 2, 2, 0},        // dsub 3
		{"ivfpq/dim10/m2", 10, 300, 1, 2, 0},      // dsub 5
		{"ivfpq/dim64/m16/+", 64, 300, 1, 16, 40}, // appended entries, one to a new label
	} {
		db := populatedDB(t, c.dim, c.n, c.classes, uint64(c.dim))
		x, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 6, Seed: 9}, M: c.m})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rng := rand.New(rand.NewPCG(5, uint64(c.dim)))
		for i := 0; i < c.appends; i++ {
			l := fingerprint.Linkage{F: randomFP(rng, c.dim), Y: i / (c.appends - 1), S: "dave"}
			if err := x.Append(c.n+i, l); err != nil {
				t.Fatalf("%s: append: %v", c.name, err)
			}
		}
		out[c.name] = x
	}
	return out
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
// may not move.
func TestGoldenIndexDigest(t *testing.T) {
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatal(err)
		}
		for name, x := range goldenIndexes(t) {
			if got, want := saveDigest(t, x), goldenDigests[name]; got != want {
				t.Errorf("impl %q: %s digest %s, golden %s", im.Name, name, got, want)
			}
		}
		restore()
	}
}
