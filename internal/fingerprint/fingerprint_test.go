package fingerprint

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"caltrain/internal/nn"
	"caltrain/internal/tensor"
)

func randomFP(rng *rand.Rand, dim int) Fingerprint {
	f := make(Fingerprint, dim)
	for i := range f {
		f[i] = float32(rng.NormFloat64())
	}
	normalize(f)
	return f
}

func populatedDB(t *testing.T, dim, n, classes int, seed uint64) *DB {
	t.Helper()
	db, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := 0; i < n; i++ {
		var h [32]byte
		h[0] = byte(i)
		err := db.Add(Linkage{
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

func TestDBAddValidation(t *testing.T) {
	db, err := NewDB(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add(Linkage{F: make(Fingerprint, 3), Y: 0}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if err := db.Add(Linkage{F: make(Fingerprint, 4), Y: -1}); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("bad label: %v", err)
	}
	if _, err := NewDB(0); err == nil {
		t.Fatal("zero dim accepted")
	}
}

func TestAddCopiesFingerprint(t *testing.T) {
	db, _ := NewDB(2)
	f := Fingerprint{1, 0}
	if err := db.Add(Linkage{F: f, Y: 0}); err != nil {
		t.Fatal(err)
	}
	f[0] = 99
	if db.Entry(0).F[0] != 1 {
		t.Fatal("DB shares caller's fingerprint storage")
	}
}

func TestQueryRestrictsToLabelAndSorts(t *testing.T) {
	db := populatedDB(t, 8, 60, 3, 7)
	rng := rand.New(rand.NewPCG(2, 2))
	q := randomFP(rng, 8)
	matches, err := db.Query(q, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 10 {
		t.Fatalf("got %d matches", len(matches))
	}
	for i, m := range matches {
		if m.Label != 1 {
			t.Fatalf("match %d has label %d, want 1", i, m.Label)
		}
		if i > 0 && matches[i-1].Distance > m.Distance {
			t.Fatal("matches not sorted ascending")
		}
	}
}

// TestQueryMatchesBruteForce: the per-class indexed query must agree with
// a plain scan over all entries.
func TestQueryMatchesBruteForce(t *testing.T) {
	db := populatedDB(t, 6, 45, 4, 9)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		q := randomFP(rng, 6)
		label := int(seed % 4)
		got, err := db.Query(q, label, 5)
		if err != nil {
			return false
		}
		// Reference: scan everything.
		type pair struct {
			idx int
			d   float64
		}
		var all []pair
		for i := 0; i < db.Len(); i++ {
			e := db.Entry(i)
			if e.Y != label {
				continue
			}
			d, _ := q.L2Distance(e.F)
			all = append(all, pair{i, d})
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].d != all[b].d {
				return all[a].d < all[b].d
			}
			return all[a].idx < all[b].idx
		})
		if len(all) > 5 {
			all = all[:5]
		}
		if len(got) != len(all) {
			return false
		}
		for i := range got {
			if got[i].Index != all[i].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryValidation(t *testing.T) {
	db := populatedDB(t, 4, 8, 2, 3)
	if _, err := db.Query(make(Fingerprint, 3), 0, 5); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if _, err := db.Query(make(Fingerprint, 4), 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Unknown class: empty result, no error.
	out, err := db.Query(make(Fingerprint, 4), 99, 5)
	if err != nil || len(out) != 0 {
		t.Fatalf("unknown class: %v %v", out, err)
	}
}

func TestSourcesOf(t *testing.T) {
	m := []Match{{Source: "a"}, {Source: "b"}, {Source: "a"}}
	got := SourcesOf(m)
	if got["a"] != 2 || got["b"] != 1 {
		t.Fatalf("SourcesOf = %v", got)
	}
}

func TestExtractNormalizedPenultimate(t *testing.T) {
	cfg := nn.Config{
		Name: "fp", InC: 1, InH: 6, InW: 6, Classes: 3,
		Layers: []nn.LayerSpec{
			{Kind: nn.KindConnected, Filters: 5, Activation: "leaky"},
			{Kind: nn.KindConnected, Filters: 3, Activation: "linear"},
			{Kind: nn.KindSoftmax},
			{Kind: nn.KindCost},
		},
	}
	net, err := nn.Build(cfg, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &nn.Context{Mode: tensor.Accelerated}
	in := tensor.New(4, 36)
	in.FillUniform(rand.New(rand.NewPCG(4, 4)), 0, 1)
	fps, err := Extract(net, ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 4 {
		t.Fatalf("got %d fingerprints", len(fps))
	}
	for _, f := range fps {
		// Penultimate layer is the 3-unit logits layer (before softmax).
		if len(f) != 3 {
			t.Fatalf("fingerprint dim %d, want 3", len(f))
		}
		var norm float64
		for _, v := range f {
			norm += float64(v) * float64(v)
		}
		if math.Abs(math.Sqrt(norm)-1) > 1e-5 {
			t.Fatalf("fingerprint not normalized: |f| = %v", math.Sqrt(norm))
		}
	}
	// Determinism: extracting twice gives identical fingerprints.
	fps2, err := Extract(net, ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fps {
		for j := range fps[i] {
			if fps[i][j] != fps2[i][j] {
				t.Fatal("extraction not deterministic")
			}
		}
	}
}

func TestExtractRequiresSoftmax(t *testing.T) {
	net := nn.NewNetwork(nn.Shape{C: 1, H: 2, W: 2})
	ctx := &nn.Context{}
	if _, err := Extract(net, ctx, tensor.New(1, 4)); err == nil {
		t.Fatal("expected error without softmax")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := populatedDB(t, 5, 20, 3, 11)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() || got.Dim() != db.Dim() {
		t.Fatalf("round-trip size: %d/%d", got.Len(), got.Dim())
	}
	for i := 0; i < db.Len(); i++ {
		a, b := db.Entry(i), got.Entry(i)
		if a.Y != b.Y || a.S != b.S || a.H != b.H {
			t.Fatalf("entry %d metadata mismatch", i)
		}
		for j := range a.F {
			if a.F[j] != b.F[j] {
				t.Fatalf("entry %d fingerprint mismatch", i)
			}
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	db := populatedDB(t, 4, 3, 2, 13)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := LoadDB(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated DB accepted")
	}
	bad := append([]byte("ZZZZ"), raw[4:]...)
	if _, err := LoadDB(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestHTTPServiceQuery(t *testing.T) {
	db := populatedDB(t, 4, 30, 2, 17)
	srv := httptest.NewServer(NewSearcherService(db).Handler())
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	rng := rand.New(rand.NewPCG(6, 6))
	q := randomFP(rng, 4)
	resp, err := client.Query(q, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 5 {
		t.Fatalf("got %d matches", len(resp.Matches))
	}
	total := 0
	for _, n := range resp.Sources {
		total += n
	}
	if total != 5 {
		t.Fatalf("sources tally %d, want 5", total)
	}
	for _, m := range resp.Matches {
		if m.Label != 1 {
			t.Fatalf("served wrong-class match: %+v", m)
		}
		if len(m.Hash) != 64 {
			t.Fatalf("hash hex length %d", len(m.Hash))
		}
	}

	// Wrong-dimension query is a client error.
	if _, err := client.Query(make(Fingerprint, 2), 1, 5); err == nil {
		t.Fatal("expected error for dim mismatch over HTTP")
	}
}

func TestHTTPServiceStats(t *testing.T) {
	db := populatedDB(t, 4, 12, 2, 19)
	srv := httptest.NewServer(NewSearcherService(db).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stats status %s", resp.Status)
	}
}

func TestL2DistanceProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		dim := 2 + int(seed%6)
		a, b := randomFP(rng, dim), randomFP(rng, dim)
		dab, err1 := a.L2Distance(b)
		dba, err2 := b.L2Distance(a)
		if err1 != nil || err2 != nil {
			return false
		}
		daa, _ := a.L2Distance(a)
		// Symmetry, identity, non-negativity.
		return math.Abs(dab-dba) < 1e-12 && daa == 0 && dab >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQueryTieOrder: the linear scan keeps (distance, index) pairs and a
// bounded heap instead of sorting whole matches, and must still order
// equal distances by database index — with every member of the class at
// one distance, with a few distinct distances, and on the parallel path.
func TestQueryTieOrder(t *testing.T) {
	for _, tc := range []struct{ n, distinct int }{{40, 1}, {300, 3}, {2*8192 + 5, 2}} {
		db, err := NewDB(4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.n; i++ {
			f := Fingerprint{float32(i % tc.distinct), 0, 0, 0}
			if err := db.Add(Linkage{F: f, Y: i % 2, S: fmt.Sprintf("p%d", i%3), H: [32]byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		q := Fingerprint{0, 0, 0, 1}
		for _, k := range []int{1, 7, tc.n / 2, tc.n} {
			got, err := db.Query(q, 1, k)
			if err != nil {
				t.Fatal(err)
			}
			var want []Match
			for i := 1; i < tc.n; i += 2 {
				e := db.Entry(i)
				d, _ := q.L2Distance(e.F)
				want = append(want, Match{Index: i, Source: e.S, Label: 1, Hash: e.H, Distance: d})
			}
			sort.SliceStable(want, func(a, b int) bool { return want[a].Distance < want[b].Distance })
			want = want[:min(k, len(want))]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n %d, %d distances, k %d: got %d matches starting %+v, want %d starting %+v",
					tc.n, tc.distinct, k, len(got), got[:min(3, len(got))], len(want), want[:min(3, len(want))])
			}
		}
	}
}
