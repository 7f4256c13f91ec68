package index

import (
	"bytes"
	"math"
	"math/rand/v2"
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

// TestSearchBatchMatchesSearch asserts SearchBatch is observationally
// identical to per-query Search on both batch-capable backends: same
// matches in the same order, bit-identical distances, and per-query
// error independence.
func TestSearchBatchMatchesSearch(t *testing.T) {
	const dim, classes = 16, 5
	db := populatedDB(t, dim, 600, classes, 91)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 8, Nprobe: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []fingerprint.BatchSearcher{NewFlat(db), ivf} {
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
				sameMatches(t, results[i], want)
				for j := range want {
					if math.Float64bits(results[i][j].Distance) != math.Float64bits(want[j].Distance) {
						t.Fatalf("query %d match %d: batch distance %v, search distance %v (bits differ)",
							i, j, results[i][j].Distance, want[j].Distance)
					}
				}
			}
		})
	}
}

// TestSearchBatchParallelPath drives a single-label bucket past
// parallelScanThreshold so the batched sweep takes the fan-out branch,
// and checks it still matches per-query Search exactly.
func TestSearchBatchParallelPath(t *testing.T) {
	const dim = 8
	db := populatedDB(t, dim, parallelScanThreshold+800, 1, 29)
	flat := NewFlat(db)
	rng := rand.New(rand.NewPCG(31, 7))
	var fs []fingerprint.Fingerprint
	var labels, ks []int
	for i := 0; i < 6; i++ {
		fs = append(fs, randomFP(rng, dim))
		labels = append(labels, 0)
		ks = append(ks, 5+i)
	}
	results, errs := flat.SearchBatch(fs, labels, ks)
	for i := range fs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := flat.Search(fs[i], labels[i], ks[i])
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, results[i], want)
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
