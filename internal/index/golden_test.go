package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
)

// goldenDigests pins the serialised bytes of seeded trained indexes,
// and trainedDigests what they hold. They must never change without an
// intentional format or training-algorithm break: trained centroids,
// codebooks, codes and list membership are part of the bit-stability
// contract, so an index built by any build of this repository loads and
// answers identically under any other. The file digests were re-recorded
// once for CTIX version 2, whose files hold trained state only; the
// trained digests, recorded before it, did not move.
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
// their trained state was pinned before training reused one workspace
// across labels.
var goldenDigests = map[string]string{
	"ivf/dim16":               "41295361953634dde8f5de5432a2c0b8aa814a78019b16debd1de44a61890043",
	"ivf/dim16/+":             "f9ed9259bd90570d1207acc1ba2426cd3ee1eea78403cd37a402005f9eac7e0e",
	"ivfpq/dim64/m16":         "c45579c8664a69e6d15c8a8c4b54c152a85ae4ffbf8c4bfb7f374c7d7300c2b0",
	"ivfpq/dim24/m2":          "64392ae949ed51a7256ddefed40894980ed7dbd95a664003f084c3a4a2b7fd3e",
	"ivfpq/dim24/m2/+":        "52ad527a07c16af76808b8e865eb444158577723fabb4019396c37bbd7595fe7",
	"ivfpq/dim16/m2":          "a7fd8c95ec634f40da1c8846290fa2bcbed65a449664ad649d73cd8ba1806a73",
	"ivfpq/dim6/m2":           "96423c712cb0c8dee87dd9583ab6b48a8cbb73bc73659306bc05a90f3e22fbf6",
	"ivfpq/dim10/m2":          "9d57d0f9759e09e4b958a4df7d03b56bda9daf101a22a03286f86a5a114e0eeb",
	"ivfpq/dim64/m16/+":       "b7d2d49a1d66d68293737e4f79f29842b476964a11b15866874e4a6e094fe949",
	"ivf/sizes/large-small":   "65747528d883bb59a21b39869d37837a27184f3f2e0b1887bd9b4a99f841d3aa",
	"ivf/sizes/small-large":   "80704e4af74a633b1dbd2094365f9739f94f50a52052148b77b08df4d671b889",
	"ivfpq/sizes/large-small": "656b35cedc2f0fc3588557c9331b021f78c11098746cfacc37e81accbca05b19",
	"ivfpq/sizes/small-large": "69a9dbee84c1fce449aaa5209cb69eb965911297341207681230db7129d9b532",
}

// trainedDigests pins what goldenCases train — centroids, lists,
// codebooks and codes, as trainedDigest reads them from memory — apart
// from any file format. They were recorded on the commit before CTIX
// files held trained state only, whose file bytes goldenDigests then
// pinned, and hold across every format change since.
var trainedDigests = map[string]string{
	"ivf/dim16":               "dab2eb28e57b78fc25bbaf144019a7654ca07f148839046670de6db4da59cea2",
	"ivf/dim16/+":             "552a51efed009940f7904de46ec9a1a9bf5c0e0097af406aeea942975e0434a5",
	"ivf/sizes/large-small":   "7ceb5689edfb6205f7d49bc1edd14f4d737351bc3f291e3c2b928886db3b029c",
	"ivf/sizes/small-large":   "eb7e43e1a89f6b47fa3cb8f7eb87686fe9c4f9ee8913db05903912acbc41af74",
	"ivfpq/dim10/m2":          "977526d5daf5e24515fc5b12cd42e607bfa7a1bacef0840c14adbbb08ff8883d",
	"ivfpq/dim16/m2":          "6f88d808cdcbcce210a8f8075b80ed99eb009508e98aed62fdcbd938f7957e79",
	"ivfpq/dim24/m2":          "303d8dacfabfb10a08e0bd4c7e904740766febdb20f12129314f161fc2364272",
	"ivfpq/dim24/m2/+":        "8ee3119b50664daf926ec8c94e1949f7818425eab95c7346cdb38647a2c8437d",
	"ivfpq/dim6/m2":           "7709caacec71924c8d0398b0e3c3cc13378d6437fbee39ab3618ffc3d3d31f12",
	"ivfpq/dim64/m16":         "51a2a739989ed514d938428ae17c885fe53e5f0b58b4b9dd2aba2bfe60091067",
	"ivfpq/dim64/m16/+":       "bf6a4015934f64ec0b1382f140686c5c4870a5ca5c39e5a8f17ca5f8335101e7",
	"ivfpq/sizes/large-small": "f44837e07fb18c850fb33c5eba3380b7157c27c56ed313c6ec941cbe04217aac",
	"ivfpq/sizes/small-large": "11ee082b9814d7939b411e1e1775e58f4106ba69acebc00ca834b12b8415d6d0",
}

// trainedDigest is a SHA-256 over the state training leaves in s, read
// from memory: per label, ascending, its database indices, and IVF's
// centroids and lists or IVFPQ's centroids, codebook (in file order),
// lists and codes; with the coarse backends' knobs.
func trainedDigest(t testing.TB, s Searcher) string {
	t.Helper()
	h := sha256.New()
	u32 := func(vs ...uint32) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint32(nil, v))
		}
	}
	i32s := func(vs []int32) {
		u32(uint32(len(vs)))
		for _, v := range vs {
			u32(uint32(v))
		}
	}
	floats := func(vs []float32) {
		for _, v := range vs {
			u32(math.Float32bits(v))
		}
	}
	switch x := s.(type) {
	case *Flat:
		u32(0)
		for _, y := range slices.Sorted(maps.Keys(x.buckets)) {
			u32(uint32(y))
			i32s(x.buckets[y].idx)
		}
	case *IVF:
		u32(1, uint32(x.Nprobe()))
		for _, y := range slices.Sorted(maps.Keys(x.labels)) {
			c := x.labels[y]
			u32(uint32(y))
			i32s(c.b.idx)
			u32(uint32(c.nlist))
			floats(c.centroids)
			for _, l := range c.lists {
				i32s(l)
			}
		}
	case *IVFPQ:
		u32(2, uint32(x.Nprobe()), uint32(x.m))
		for _, y := range slices.Sorted(maps.Keys(x.labels)) {
			c := x.labels[y]
			u32(uint32(y), uint32(c.n), uint32(c.nlist))
			floats(c.centroids)
			for j := range c.book.centroids {
				u32(math.Float32bits(c.book.centroids[c.book.slot(j)]))
			}
			for _, l := range c.lists {
				i32s(l.idx)
				h.Write(l.codes)
			}
		}
	default:
		t.Fatalf("no trained state in a %s index", s.Kind())
	}
	return hex.EncodeToString(h.Sum(nil))
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
// the trained index and loads it back over its database — then appends,
// into a snapshot of the case's database, which the appends grow.
func (c goldenCase) build(t testing.TB, viaLoad bool) Searcher {
	t.Helper()
	db := c.db.Snapshot(-1)
	x, err := c.train(db)
	if err != nil {
		t.Fatal(err)
	}
	if viaLoad {
		var buf bytes.Buffer
		if err := Save(&buf, x); err != nil {
			t.Fatal(err)
		}
		s, err := Load(bytes.NewReader(buf.Bytes()), db)
		if err != nil {
			t.Fatal(err)
		}
		x = s
	}
	for i, l := range c.appends {
		if err := x.Append(db.Len(), l); err != nil {
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
		"ivf":   "98732db97d08f5642da42ec1f9a5f515394b1d153fe1b40ca3ccfa55c7a647e0",
		"ivfpq": "5c6961a614df02a29dc51a18b826ad569a93322666e1f0661944331ba9693cc9",
	}
	trained := map[string]string{ // trainedDigest, recorded like trainedDigests
		"ivf":   "87a335684e77aa57786d5f66bbc7d3ec78fbd82175bc7cbe3a01dcaf2f8686a7",
		"ivfpq": "707da7c22de392bfa62c9fff7b6c96b290da306cadf104be14ddfbd120049fd0",
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
				if got := trainedDigest(t, x); got != trained[name] {
					t.Errorf("impl %q, GOMAXPROCS %d: %s trained digest %s, pinned %s", im.Name, procs, name, got, trained[name])
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
			want, trained := goldenDigests[name], trainedDigests[name]
			for _, viaLoad := range []bool{false, true} {
				x := c.build(t, viaLoad)
				if got := saveDigest(t, x); got != want {
					t.Errorf("impl %q: %s (via Load %v): digest %s, golden %s", im.Name, name, viaLoad, got, want)
				}
				if got := trainedDigest(t, x); got != trained {
					t.Errorf("impl %q: %s (via Load %v): trained digest %s, golden %s", im.Name, name, viaLoad, got, trained)
				}
			}
		}
		restore()
	}
}
