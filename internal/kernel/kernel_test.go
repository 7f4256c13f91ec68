package kernel_test

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
	"testing/quick"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
	"caltrain/internal/kernel/kerneltest"
)

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// specialVec builds a dim-length vector whose entries cycle through the
// adversarial specials, offset so paired vectors misalign their NaNs.
func specialVec(dim, phase int) []float32 {
	sp := kerneltest.Specials()
	v := make([]float32, dim)
	for i := range v {
		v[i] = sp[(i+phase)%len(sp)]
	}
	return v
}

// TestImplParity sweeps every registered implementation against the
// reference over the adversarial dimension list, with random, special,
// and mixed inputs, plus unaligned slice offsets.
func TestImplParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 19))
	for _, dim := range kerneltest.Dims() {
		q, v := randVec(rng, dim), randVec(rng, dim)
		kerneltest.CheckPair(t, q, v)
		kerneltest.CheckPair(t, specialVec(dim, 0), specialVec(dim, 5))
		kerneltest.CheckPair(t, q, specialVec(dim, 3))
		kerneltest.CheckPair(t, q, q) // identical backing contents
		if dim >= 4 {
			// Unaligned bases: slice one element into a shared allocation.
			back := randVec(rng, 2*dim)
			kerneltest.CheckPair(t, back[1:dim], back[dim+1:2*dim])
		}
	}
}

// TestBatchParity cross-checks the batched entry points against pairwise
// reference calls on shapes around the blocking boundaries.
func TestBatchParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 23))
	for _, dim := range []int{1, 3, 8, 17, 64, 129} {
		for _, n := range []int{1, 2, 7, 255, 256, 257, 600} {
			for _, nq := range []int{1, 2, 5} {
				kerneltest.CheckBatch(t, randVec(rng, nq*dim), randVec(rng, n*dim), dim)
			}
		}
		// Specials through the batched paths too.
		kerneltest.CheckBatch(t, specialVec(2*dim, 1), specialVec(9*dim, 4), dim)
	}
}

// TestRowsParity sweeps the rows kernel of every implementation, and
// ArgminRows on top of it, against pairwise reference calls: every
// adversarial width (the lane-per-row widths 1–7 in full), row counts
// around the lane counts and the argmin block, random, special and
// mixed values, and rows and query sliced off vector-aligned bases.
func TestRowsParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 31))
	for _, dim := range kerneltest.Dims() {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 600} {
			if dim > 129 && n > 9 {
				continue
			}
			q := randVec(rng, dim)
			kerneltest.CheckRows(t, q, randVec(rng, n*dim), n)
			kerneltest.CheckRows(t, q, specialVec(n*dim, 2), n)
			kerneltest.CheckRows(t, specialVec(dim, 7), specialVec(n*dim, 0), n)
			back := randVec(rng, 2+(n+1)*dim)
			kerneltest.CheckRows(t, back[1+n*dim:1+(n+1)*dim], back[1:1+n*dim], n)
		}
	}
}

// TestArgminRowsTieBreak pins the argmin contract the trainers' output
// bytes depend on: strict <, so the lowest index wins a tie (within a
// block and across the block boundary); NaN never wins; and 0 comes
// back when no row is closer than +Inf.
func TestArgminRowsTieBreak(t *testing.T) {
	const dim = 4
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	q := []float32{0, 0, 0, 0}
	rows := func(n int, fill float32) []float32 {
		v := make([]float32, n*dim)
		for i := range v {
			v[i] = fill
		}
		return v
	}
	set := func(v []float32, row int, x float32) []float32 {
		for j := 0; j < dim; j++ {
			v[row*dim+j] = x
		}
		return v
	}
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			vecs []float32
			n    int
			want int
		}{
			{"no rows", nil, 0, 0},
			{"all equal", rows(9, 1), 9, 0},
			{"tie inside a block", set(set(rows(9, 3), 5, 1), 7, 1), 9, 5},
			{"tie across blocks", set(set(rows(600, 3), 300, 1), 10, 1), 600, 10},
			{"later block strictly closer", set(set(rows(600, 3), 10, 2), 300, 1), 600, 300},
			{"NaN never wins", set(rows(6, nan), 4, 2), 6, 4},
			{"all NaN", rows(6, nan), 6, 0},
			{"all +Inf", rows(6, inf), 6, 0},
		} {
			if got := kernel.ArgminRows(q, c.vecs, dim, c.n); got != c.want {
				t.Errorf("impl %q: %s: ArgminRows = %d, want %d", im.Name, c.name, got, c.want)
			}
		}
		restore()
	}
}

// TestDistanceProperties mirrors fingerprint's TestL2DistanceProperties
// for the kernel, under every registered implementation: exact (bitwise)
// symmetry on finite inputs, identity of indiscernibles, non-negativity,
// and exact agreement with Fingerprint.L2Distance.
func TestDistanceProperties(t *testing.T) {
	for _, im := range kernel.Impls() {
		t.Run(im.Name, func(t *testing.T) {
			restore, err := kernel.SetActive(im.Name)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			f := func(seed uint64) bool {
				rng := rand.New(rand.NewPCG(seed, 21))
				dim := int(seed % 133)
				a, b := randVec(rng, dim), randVec(rng, dim)
				dab := kernel.SqDist(a, b)
				dba := kernel.SqDist(b, a)
				if math.Float64bits(dab) != math.Float64bits(dba) {
					return false // symmetry must be exact for finite inputs
				}
				if kernel.SqDist(a, a) != 0 || dab < 0 {
					return false
				}
				l2, err := fingerprint.Fingerprint(a).L2Distance(fingerprint.Fingerprint(b))
				return err == nil && l2 == math.Sqrt(dab)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSqDistLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SqDist on mismatched lengths did not panic")
		}
	}()
	kernel.SqDist(make([]float32, 3), make([]float32, 4))
}

// TestRowsShortVectorsPanics: the rows kernel keeps its row loop in
// assembly, so a vecs shorter than len(out) rows must be refused before
// dispatch rather than read past.
func TestRowsShortVectorsPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"DistanceRows": func() { kernel.DistanceRows(make([]float32, 4), make([]float32, 11), 4, make([]float64, 3)) },
		"ArgminRows":   func() { kernel.ArgminRows(make([]float32, 4), make([]float32, 11), 4, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on 11 floats for 3 rows of 4 did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestSetActive(t *testing.T) {
	orig := kernel.Active()
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatalf("SetActive(%q): %v", im.Name, err)
		}
		if got := kernel.Active(); got != im.Name {
			t.Fatalf("Active() = %q after SetActive(%q)", got, im.Name)
		}
		restore()
		if got := kernel.Active(); got != orig {
			t.Fatalf("restore left Active() = %q, want %q", got, orig)
		}
	}
	if _, err := kernel.SetActive("no-such-impl"); err == nil {
		t.Fatal("SetActive with unknown name did not error")
	}
}

func BenchmarkSqDist(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, dim := range []int{16, 64, 256} {
		q, v := randVec(rng, dim), randVec(rng, dim)
		for _, im := range kernel.Impls() {
			b.Run(im.Name+"/dim="+strconv.Itoa(dim), func(b *testing.B) {
				b.SetBytes(int64(8 * dim))
				var s float64
				for i := 0; i < b.N; i++ {
					s += im.SqDist(q, v)
				}
				sink = s
			})
		}
	}
}

// BenchmarkDistanceRows times one rows-kernel dispatch over a
// codebook-sized block (256 rows) per implementation: dim 2 and 4 are
// the lane-per-row widths of PQ subvectors, 8 the first blocked width,
// 64 a whole fingerprint. ns/op ÷ 256 is the cost per row.
func BenchmarkDistanceRows(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 11))
	const rows = 256
	out := make([]float64, rows)
	for _, dim := range []int{2, 4, 8, 64} {
		q, vecs := randVec(rng, dim), randVec(rng, rows*dim)
		for _, im := range kernel.Impls() {
			b.Run("dim="+strconv.Itoa(dim)+"/"+im.Name, func(b *testing.B) {
				b.SetBytes(int64(4 * rows * dim))
				for i := 0; i < b.N; i++ {
					im.Rows(q, vecs, dim, out)
				}
				sink = out[0]
			})
		}
	}
}

var sink float64
