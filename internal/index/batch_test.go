package index

import (
	"bytes"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
)

// batchCase builds a mixed batch: labels cycling through present and
// absent classes, varying k, and one dimension-mismatched query that
// must fail alone.
func batchCase(rng *rand.Rand, dim, n, classes int) (fs []fingerprint.Fingerprint, labels, ks []int) {
	for i := 0; i < n; i++ {
		d := dim
		if i == n/2 {
			d = dim + 1 // invalid: must error without poisoning the batch
		}
		fs = append(fs, randomFP(rng, d))
		labels = append(labels, i%(classes+1)) // classes+1 is absent
		ks = append(ks, 1+i%13)
	}
	return fs, labels, ks
}

// sameBits fails unless got and want are the same matches with
// bit-identical distances.
func sameBits(t *testing.T, got, want []fingerprint.Match) {
	t.Helper()
	sameMatches(t, got, want)
	for j := range want {
		if math.Float64bits(got[j].Distance) != math.Float64bits(want[j].Distance) {
			t.Fatalf("match %d: distance %v, want %v (bits differ)", j, got[j].Distance, want[j].Distance)
		}
	}
}

// TestSearchBatchMatchesSearch asserts SearchBatch is observationally
// identical to per-query Search on every backend: same matches in the
// same order, bit-identical distances, and per-query error
// independence.
func TestSearchBatchMatchesSearch(t *testing.T) {
	const dim, classes = 16, 5
	db := populatedDB(t, dim, 600, classes, 91)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 8, Nprobe: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 8, Nprobe: 3, Seed: 2}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []fingerprint.BatchSearcher{NewFlat(db), ivf, pq} {
		t.Run(backend.Kind(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(5, 17))
			fs, labels, ks := batchCase(rng, dim, 41, classes)
			results, errs := backend.SearchBatch(fs, labels, ks)
			if len(results) != len(fs) || len(errs) != len(fs) {
				t.Fatalf("SearchBatch returned %d results, %d errors for %d queries", len(results), len(errs), len(fs))
			}
			for i := range fs {
				want, wantErr := backend.Search(fs[i], labels[i], ks[i])
				if (errs[i] == nil) != (wantErr == nil) {
					t.Fatalf("query %d: batch err %v, search err %v", i, errs[i], wantErr)
				}
				if wantErr != nil {
					if errs[i].Error() != wantErr.Error() {
						t.Fatalf("query %d: batch err %q, search err %q", i, errs[i], wantErr)
					}
					continue
				}
				sameBits(t, results[i], want)
			}
		})
	}
}

// fanOutBackends builds every backend over one class big enough that a
// full scan of it fans out (≥ parallelScanThreshold candidates), the
// approximate ones probing every list so that theirs does too.
func fanOutBackends(t *testing.T, dim int) []fingerprint.BatchSearcher {
	t.Helper()
	db := populatedDB(t, dim, parallelScanThreshold+800, 1, 29)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 8, Nprobe: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 8, Nprobe: 8, Seed: 2}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	return []fingerprint.BatchSearcher{NewFlat(db), ivf, pq}
}

// TestSearchBatchParallelPath drives a single-label class past
// parallelScanThreshold so every backend's sweep takes the fan-out
// branch, and checks the batch still matches per-query Search exactly,
// with those searches running concurrently.
func TestSearchBatchParallelPath(t *testing.T) {
	const dim = 8
	for _, backend := range fanOutBackends(t, dim) {
		t.Run(backend.Kind(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(31, 7))
			var fs []fingerprint.Fingerprint
			var labels, ks []int
			for i := 0; i < 6; i++ {
				fs = append(fs, randomFP(rng, dim))
				labels = append(labels, 0)
				ks = append(ks, 5+i)
			}
			results, errs := backend.SearchBatch(fs, labels, ks)
			// The per-query searches run at once: fanned-out sweeps share
			// the scratch pool, which -race gets to see here.
			wants := make([][]fingerprint.Match, len(fs))
			var wg sync.WaitGroup
			for i := range fs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if wants[i], err = backend.Search(fs[i], labels[i], ks[i]); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			for i := range fs {
				if errs[i] != nil {
					t.Fatalf("query %d: %v", i, errs[i])
				}
				sameBits(t, results[i], wants[i])
			}
		})
	}
}

// TestSearchFanOutDeterministic: how a fanned-out sweep splits its
// candidates depends on GOMAXPROCS, and its answer must not. On every
// backend a query answers bit-identically on one worker and on four,
// and by every door: Search, a SearchBatch of one, and the same query
// inside a mixed batch (other queries, an absent label, a bad query).
func TestSearchFanOutDeterministic(t *testing.T) {
	const dim, k = 8, 9
	for _, backend := range fanOutBackends(t, dim) {
		t.Run(backend.Kind(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(47, 3))
			q := randomFP(rng, dim)
			fs := []fingerprint.Fingerprint{randomFP(rng, dim), randomFP(rng, dim), q, randomFP(rng, dim+1), randomFP(rng, dim)}
			labels, ks := []int{0, 1, 0, 0, 0}, []int{3, 4, k, 5, 40}
			var want []fingerprint.Match
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				single, err := backend.Search(q, 0, k)
				one, oneErrs := backend.SearchBatch(fs[2:3], labels[2:3], ks[2:3])
				mixed, mixedErrs := backend.SearchBatch(fs, labels, ks)
				runtime.GOMAXPROCS(prev)
				if err != nil || oneErrs[0] != nil || mixedErrs[2] != nil {
					t.Fatal(err, oneErrs[0], mixedErrs[2])
				}
				if mixedErrs[3] == nil || mixed[1] != nil {
					t.Fatalf("mixed batch: bad query err %v, absent label %v", mixedErrs[3], mixed[1])
				}
				if len(single) != k {
					t.Fatalf("GOMAXPROCS %d: %d matches, want %d", procs, len(single), k)
				}
				if want == nil {
					want = single
				}
				sameBits(t, single, want)
				sameBits(t, one[0], want)
				sameBits(t, mixed[2], want)
			}
		})
	}
}

// TestSearchHugeK: k is the caller's (an operator sets -max-k, and the
// index types are public), so it must not size anything. k = 1<<40
// over a 100-entry class once made the heap reserve room for 2^40
// candidates and died of it; every backend must instead return the
// class — the approximate ones probing every list — as DB.Query does.
func TestSearchHugeK(t *testing.T) {
	const dim, classes, k = 8, 3, 1 << 40
	db := populatedDB(t, dim, 300, classes, 61)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 4, Nprobe: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 4, Nprobe: 4, Seed: 2}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := randomFP(rand.New(rand.NewPCG(3, 9)), dim)
	want, err := db.Query(q, 1, k)
	if err != nil || len(want) != 100 {
		t.Fatalf("DB.Query: %d matches, err %v", len(want), err)
	}
	for _, backend := range []fingerprint.BatchSearcher{NewFlat(db), ivf, pq} {
		t.Run(backend.Kind(), func(t *testing.T) {
			got, err := backend.Search(q, 1, k)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, got, want)
			batch, errs := backend.SearchBatch([]fingerprint.Fingerprint{q, q}, []int{1, 1}, []int{k, 2})
			if errs[0] != nil || errs[1] != nil {
				t.Fatal(errs)
			}
			sameBits(t, batch[0], want)
			sameBits(t, batch[1], want[:2])
		})
	}
}

// TestSearchImplParity proves the bit-stability contract end to end:
// training the IVF and IVFPQ indexes and querying every backend under
// each kernel implementation yields bit-identical matches AND
// byte-identical Save streams — an index built on an AVX2 machine and
// served with the portable path (or vice versa) agrees exactly. IVFPQ
// (dim 16, M 4: 4-float subvectors) is what holds the lane-per-row
// kernel under the trainers and the ADC table build to that.
func TestSearchImplParity(t *testing.T) {
	impls := kernel.Impls()
	if len(impls) < 2 {
		t.Skipf("only %v registered; nothing to cross-check", kernel.Active())
	}
	const dim, classes = 16, 3
	db := populatedDB(t, dim, 500, classes, 77)
	rng := rand.New(rand.NewPCG(13, 3))
	queries := make([]fingerprint.Fingerprint, 12)
	for i := range queries {
		queries[i] = randomFP(rng, dim)
	}

	type shot struct {
		kind  string
		got   [][]fingerprint.Match
		saved []byte
	}
	var baseline []shot
	for implIdx, im := range impls {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatal(err)
		}
		ivf, err := TrainIVF(db, IVFOptions{Nlist: 8, Nprobe: 3, Seed: 4})
		if err != nil {
			restore()
			t.Fatal(err)
		}
		pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 8, Nprobe: 3, Seed: 4}, M: 4})
		if err != nil {
			restore()
			t.Fatal(err)
		}
		for bi, backend := range []Searcher{NewFlat(db), ivf, pq} {
			got := make([][]fingerprint.Match, len(queries))
			for qi, q := range queries {
				got[qi], err = backend.Search(q, qi%classes, 10)
				if err != nil {
					restore()
					t.Fatal(err)
				}
			}
			var saved bytes.Buffer
			if err := Save(&saved, backend); err != nil {
				restore()
				t.Fatal(err)
			}
			if implIdx == 0 {
				baseline = append(baseline, shot{backend.Kind(), got, saved.Bytes()})
				continue
			}
			want := baseline[bi]
			if !bytes.Equal(saved.Bytes(), want.saved) {
				t.Fatalf("%s trained under impl %q saves different bytes than under %q", want.kind, im.Name, impls[0].Name)
			}
			for qi := range queries {
				if len(got[qi]) != len(want.got[qi]) {
					t.Fatalf("%s impl %q: query %d returned %d matches, %q returned %d",
						want.kind, im.Name, qi, len(got[qi]), impls[0].Name, len(want.got[qi]))
				}
				for j := range got[qi] {
					g, w := got[qi][j], want.got[qi][j]
					if g.Index != w.Index || math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
						t.Fatalf("%s impl %q vs %q: query %d match %d: (%d, %x) vs (%d, %x)",
							want.kind, im.Name, impls[0].Name, qi, j,
							g.Index, math.Float64bits(g.Distance), w.Index, math.Float64bits(w.Distance))
					}
				}
			}
		}
		restore()
	}
}

// TestBatchQueryRace hammers the batched serving path while the backend
// is hot-swapped between Flat and IVF — the production rollover
// RunBatch must tolerate. Run under -race this guards the
// snapshot-the-searcher-once discipline in runBatchSearch.
func TestBatchQueryRace(t *testing.T) {
	const dim, classes = 8, 4
	db := populatedDB(t, dim, 2000, classes, 13)
	flat := NewFlat(db)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	svc := fingerprint.NewSearcherService(flat)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 27))
			for {
				select {
				case <-stop:
					return
				default:
				}
				reqs := make([]fingerprint.QueryRequest, 24)
				for i := range reqs {
					reqs[i] = fingerprint.QueryRequest{
						Fingerprint: randomFP(rng, dim),
						Label:       i % classes,
						K:           1 + i%7,
					}
				}
				resp := svc.RunBatch(reqs)
				if len(resp.Results) != len(reqs) {
					t.Errorf("got %d results for %d queries", len(resp.Results), len(reqs))
					return
				}
				for i, r := range resp.Results {
					if r.Error != "" {
						t.Errorf("query %d failed: %s", i, r.Error)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			svc.SetSearcher(ivf)
		} else {
			svc.SetSearcher(flat)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSearchAllocBudget holds the pipeline's pooled scratch to what it
// is for: on 20 000 × 64 in two labels at k 9 — the flat class is
// above parallelScanThreshold, so its sweep fans out — a Search and a
// 16-query same-label SearchBatch may allocate no more than they did
// when each backend had a search path of its own (an IVFPQ search: the
// matches it returns, nothing else).
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const dim, n, k, batch = 64, 20000, 9, 16
	db, err := fingerprint.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range linkedFingerprints(rand.New(rand.NewPCG(15, 1)), n, dim, 64, 12, 0.15, 0.05) {
		if err := db.Add(fingerprint.Linkage{F: f, Y: i % 2, S: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	// One Lloyd round: the budget is about the search path, not the lists.
	opts := IVFOptions{Seed: 2, Iters: 1}
	ivf, err := TrainIVF(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	queries := linkedFingerprints(rand.New(rand.NewPCG(16, 1)), batch, dim, 64, 12, 0.15, 0.05)
	labels, ks := make([]int, batch), make([]int, batch)
	for i := range ks {
		ks[i] = k
	}
	for _, tc := range []struct {
		backend               fingerprint.BatchSearcher
		perSearch, perBatch16 float64
	}{{NewFlat(db), 15, 163}, {ivf, 7, 107}, {pq, 1, 27}} {
		i := 0
		one := testing.AllocsPerRun(200, func() {
			_, _ = tc.backend.Search(queries[i%batch], 0, k)
			i++
		})
		if one > tc.perSearch {
			t.Errorf("%s: %v allocations per Search, budget %v", tc.backend.Kind(), one, tc.perSearch)
		}
		all := testing.AllocsPerRun(50, func() { _, _ = tc.backend.SearchBatch(queries, labels, ks) })
		if all > tc.perBatch16 {
			t.Errorf("%s: %v allocations per 16-query SearchBatch, budget %v", tc.backend.Kind(), all, tc.perBatch16)
		}
		t.Logf("%s: %v allocations per Search, %v per 16-query SearchBatch", tc.backend.Kind(), one, all)
	}
}
