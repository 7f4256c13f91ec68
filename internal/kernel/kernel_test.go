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
// adversarial width, row counts around the lane counts and the argmin
// block, random, special and mixed values, and rows and query sliced
// off vector-aligned bases. At the widths 1–7, covered in full,
// CheckRows holds the planar entry points to the same table transposed.
func TestRowsParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 31))
	for _, dim := range kerneltest.Dims() {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 600} {
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

// argminCase is one adversarial ArgminRows input: len(vecs)/len(q) rows.
type argminCase struct {
	name    string
	q, vecs []float32
}

// argminCases is the table the random fuzzer will not find: for every
// shape in dims × ns, inputs built to sit ON the decisions the screened
// argmin makes — exact ties, one-ulp neighbours, distance 0, squares
// that underflow or overflow float32, a screening value either side of
// the safe limit, and non-finite coordinates — where a screening margin
// that is too tight, a wrong tie rule or a missed fallback returns a
// different index than the exhaustive exact scan. Row a = n/3 and row
// b = n-1 are planted around the natural winner w = 2n/3, so in the
// larger shapes the three sit in different 256-row blocks.
func argminCases(dims, ns []int) []argminCase {
	rng := rand.New(rand.NewPCG(41, 43))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	var cases []argminCase
	for _, dim := range dims {
		for _, n := range ns {
			a, w, b := n/3, 2*n/3, n-1
			add := func(name string, scale float32, twist func(q, vecs []float32, row func(int) []float32)) {
				q, vecs := randVec(rng, dim), randVec(rng, n*dim)
				row := func(i int) []float32 { return vecs[i*dim : (i+1)*dim] }
				for j := range q { // w is the nearest row by a wide margin
					q[j] = row(w)[j] + 0.01*q[j]
				}
				for i := range vecs {
					vecs[i] *= scale
				}
				for j := range q {
					q[j] *= scale
				}
				if twist != nil {
					twist(q, vecs, row)
				}
				cases = append(cases, argminCase{name + "/dim=" + strconv.Itoa(dim) + "/n=" + strconv.Itoa(n), q, vecs})
			}
			add("ties", 1, func(q, vecs []float32, row func(int) []float32) {
				copy(row(a), row(w))
				copy(row(b), row(w))
			})
			add("one ulp apart", 1, func(q, vecs []float32, row func(int) []float32) {
				copy(row(a), row(w))
				copy(row(b), row(w))
				row(a)[0] = math.Nextafter32(row(a)[0], inf)
				row(b)[dim-1] = math.Nextafter32(row(b)[dim-1], -inf)
			})
			add("cluster float32 cannot resolve", 1, func(q, vecs []float32, row func(int) []float32) {
				for j := range q { // far from the cluster: an ulp of a row moves the distance by ~1e-9 of itself
					q[j] = -row(w)[j]
				}
				for i := 0; i < n; i++ {
					if i != w {
						copy(row(i), row(w))
					}
					for k := 0; k < i%5; k++ {
						row(i)[i%dim] = math.Nextafter32(row(i)[i%dim], 0)
					}
				}
			})
			add("rotations of one difference", 1, func(q, vecs []float32, row func(int) []float32) {
				// Every row is at the same distance up to the LAST bits of
				// the exact sum, and the float32 roundings are independent.
				clear(q)
				for i := 0; i < n; i++ {
					if i != w {
						for j := range q {
							row(i)[j] = row(w)[(j+i)%dim]
						}
					}
				}
			})
			add("rotations far from the origin", 1, func(q, vecs []float32, row func(int) []float32) {
				// The same rotations around a query 100 from the origin in
				// every coordinate: ‖v‖² and 2·q·v of the dot form cancel
				// to a few bits, so a margin that ignores ‖q‖ and ‖v‖
				// loses the winner.
				d := append([]float32(nil), row(w)...)
				for j := range q {
					q[j] = 100
				}
				for i := 0; i < n; i++ {
					for j := range q {
						row(i)[j] = 100 + d[(j+i)%dim]
					}
				}
			})
			add("cloud far from the origin", 1, func(q, vecs []float32, row func(int) []float32) {
				// Every coordinate 1e3 off: the dot form cancels ~20 bits, the
				// limit widens with ‖q‖², and every row is a candidate.
				for i := range vecs {
					vecs[i] += 1e3
				}
				for j := range q {
					q[j] += 1e3
				}
			})
			add("re-seeded duplicates", 1, func(q, vecs []float32, row func(int) []float32) {
				// A codebook seeded from fewer samples than centroids (PQ
				// training's k%sampleN): the table repeats with period 5, so
				// every distance ties with four or more others.
				for i := 5; i < n; i++ {
					copy(row(i), row(i%5))
				}
				copy(q, row((n-1)%5))
				q[0] += 0.25
			})
			add("query equals rows", 1, func(q, vecs []float32, row func(int) []float32) {
				copy(q, row(w))
				copy(row(a), row(w))
				copy(row(b), row(w))
			})
			add("subnormal differences", 1, func(q, vecs []float32, row func(int) []float32) {
				clear(q)
				for i := range vecs {
					vecs[i] = math.Float32frombits(uint32(1 + (i*7+i/dim)%5))
				}
			})
			add("underflow hides a sum", 1, func(q, vecs []float32, row func(int) []float32) {
				// Every square of rows ≠ w rounds to float32 zero, so they
				// all screen as 0; row w screens as 2⁻¹⁴⁹ and is nearer.
				clear(q)
				for i := range vecs {
					vecs[i] = 0.99 * 0x1p-75
				}
				clear(row(w))
				row(w)[0] = 1.5 * 0x1p-75
			})
			add("subnormal squares accumulate", 1, func(q, vecs []float32, row func(int) []float32) {
				// Every square of rows ≠ w rounds to zero (they screen as 0);
				// row w's first 2·dim/5 squares round DOWN, 2.25 to 2, 3.125
				// to 3 ulps of 2⁻¹⁴⁹, though it is the nearest row: only the
				// absolute term η of the limit covers the difference.
				clear(q)
				for i := range vecs {
					vecs[i] = 0.99 * 0x1p-75
				}
				clear(row(w))
				for j := range max(1, 2*dim/5) {
					row(w)[j] = 1.5 * 0x1p-75
				}
			})
			add("squares underflow", 1e-21, nil)
			add("squares overflow", 1e19, nil)
			add("one row overflows", 1, func(q, vecs []float32, row func(int) []float32) {
				row(a)[dim/2] = 3e19
			})
			add("either side of the safe limit", 1e14, nil)
			add("NaN in the query", 1, func(q, vecs []float32, row func(int) []float32) { q[dim/2] = nan })
			add("Inf in the query", 1, func(q, vecs []float32, row func(int) []float32) { q[dim-1] = -inf })
			add("NaN in the winner", 1, func(q, vecs []float32, row func(int) []float32) { row(w)[dim-1] = nan })
			add("Inf in the winner", 1, func(q, vecs []float32, row func(int) []float32) { row(w)[0] = inf })
			add("NaN in every row", 1, func(q, vecs []float32, row func(int) []float32) {
				for i := 0; i < n; i++ {
					row(i)[i%dim] = nan
				}
			})
		}
	}
	return cases
}

// TestArgminAdversarial holds ArgminRows under every implementation to
// the exhaustive exact scan on the adversarial table, at every width
// class of the screening pass (whole 8-float blocks, a scalar tail, a
// long row) and every row count around the 256-row block edges — and,
// at the planar widths below 8, ArgminPlanar and DistancePlanar over the
// transposed table (CheckRows runs CheckPlanar there), where the planted
// ties land in different lanes and lane groups of the fused argmin.
func TestArgminAdversarial(t *testing.T) {
	dims, ns := []int{1, 2, 4, 7, 8, 9, 15, 16, 17, 64, 100, 1024}, []int{1, 255, 256, 257, 513}
	if testing.Short() {
		dims, ns = []int{4, 8, 17, 64}, []int{1, 257}
	}
	for _, c := range argminCases(dims, ns) {
		t.Run(c.name, func(t *testing.T) {
			kerneltest.CheckRows(t, c.q, c.vecs, len(c.vecs)/len(c.q))
		})
	}
}

// TestArgminPlanarAdversarial holds the planar entry points to the
// exhaustive exact scan on the adversarial table at every planar width
// and at row counts below, at and around the screen's minimum, the
// vector step and the 256-row block: CheckPlanar runs DistancePlanar,
// ArgminPlanar and ArgminPlanarBatch with the planted query at every
// slot of a tile, under every implementation.
func TestArgminPlanarAdversarial(t *testing.T) {
	dims, ns := []int{1, 2, 3, 4, 5, 6, 7}, []int{1, 7, 8, 31, 32, 33, 255, 256, 257}
	if testing.Short() {
		dims, ns = []int{1, 4, 7}, []int{8, 33, 257}
	}
	for _, c := range argminCases(dims, ns) {
		t.Run(c.name, func(t *testing.T) {
			kerneltest.CheckPlanar(t, c.q, c.vecs, len(c.vecs)/len(c.q))
		})
	}
}

// TestArgminBatchParity holds ArgminBatch under every implementation to
// the reference argmin of each query: every screened width class (whole
// blocks, a leftover tail, a long row) and a few below it, row counts
// around the four-row screening minimum and the 256-row block, batches
// that are not a multiple of the tile, and random, special and mixed
// values.
func TestArgminBatchParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 59))
	dims, ns := []int{1, 4, 7, 8, 9, 15, 16, 17, 63, 64, 65, 129}, []int{0, 1, 3, 4, 5, 158, 256, 257, 600}
	if testing.Short() {
		dims, ns = []int{4, 8, 17, 64}, []int{0, 3, 158, 257}
	}
	for _, dim := range dims {
		for _, n := range ns {
			nq := 1 + (dim+n)%(2*kernel.ArgminTile+2)
			vecs := randVec(rng, n*dim)
			kerneltest.CheckArgminBatch(t, randVec(rng, nq*dim), vecs, dim, n)
			kerneltest.CheckArgminBatch(t, specialVec(nq*dim, 3), specialVec(n*dim, 1), dim, n)
			kerneltest.CheckArgminBatch(t, specialVec(nq*dim, 5), vecs, dim, n)
		}
	}
}

// TestArgminBatchAdversarial runs the adversarial table through
// ArgminBatch with the planted query at every slot position of a tile
// and beyond it, its neighbours rows of the same table (distance 0,
// ties) and its own negation: every slot must equal the exhaustive exact
// scan's index.
func TestArgminBatchAdversarial(t *testing.T) {
	dims, ns := []int{8, 9, 16, 17, 64, 100}, []int{4, 255, 257}
	if testing.Short() {
		dims, ns = []int{8, 17, 64}, []int{257}
	}
	for _, c := range argminCases(dims, ns) {
		t.Run(c.name, func(t *testing.T) {
			dim := len(c.q)
			n := len(c.vecs) / dim
			for slot := 0; slot <= kernel.ArgminTile; slot++ {
				qs := make([]float32, 0, (kernel.ArgminTile+1)*dim)
				for s := 0; s <= kernel.ArgminTile; s++ {
					switch {
					case s == slot:
						qs = append(qs, c.q...)
					case s%2 == 0:
						r := (s * 7) % n
						qs = append(qs, c.vecs[r*dim:(r+1)*dim]...)
					default:
						for _, x := range c.q {
							qs = append(qs, -x)
						}
					}
				}
				kerneltest.CheckArgminBatch(t, qs, c.vecs, dim, n)
			}
		})
	}
}

// TestArgminPlanarBatchAdversarial holds ArgminPlanarBatch — the
// assignment step of every k-means pass, over the centroid table
// transposed to planar at any width — to the exhaustive exact scan on
// the adversarial table, under every implementation: the wide widths of
// a coarse quantizer (whole 8-float blocks, a leftover tail, a long
// row) at row counts around the screen's minimum, the tiles' last steps
// (sixteen wide when no more than sixteen are left, a 24-wide step
// re-anchored when 17–23 are: 47) and the 256-row block, and the bench
// shards' 50 and 158 lists. The batch
// alternates the planted query with its negation, five long, so the
// windows CheckArgminPlanarBatch screens put the planted query at every
// slot of a full tile, beside a different query, and in a batch of one.
func TestArgminPlanarBatchAdversarial(t *testing.T) {
	dims, ns := []int{8, 9, 15, 16, 17, 64, 100, 1024}, []int{1, 15, 16, 17, 47, 50, 158, 255, 256, 257}
	if testing.Short() {
		dims, ns = []int{8, 17, 64}, []int{17, 50, 257}
	}
	for _, c := range argminCases(dims, ns) {
		t.Run(c.name, func(t *testing.T) {
			dim := len(c.q)
			qs := make([]float32, 0, (kernel.ArgminTile+1)*dim)
			for s := 0; s <= kernel.ArgminTile; s++ {
				if s%2 == 0 {
					qs = append(qs, c.q...)
					continue
				}
				for _, x := range c.q {
					qs = append(qs, -x)
				}
			}
			kerneltest.CheckArgminPlanarBatch(t, qs, c.vecs, dim, len(c.vecs)/dim)
		})
	}
}

// TestArgminBatchIsolatesSpecialQueries puts a NaN, an infinite and a
// huge query (squared norm far above the screen's 1e30 safe range) into
// one slot of a tile of ordinary ones: that slot falls back to the
// exhaustive scan and the other slots keep their screened answers, all
// equal to the reference.
func TestArgminBatchIsolatesSpecialQueries(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 67))
	const dim, n = 64, 158
	vecs := randVec(rng, n*dim)
	for _, special := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3e18, 1e16} {
		for slot := 0; slot < kernel.ArgminTile; slot++ {
			qs := randVec(rng, kernel.ArgminTile*dim)
			qs[slot*dim+dim/2] = special
			kerneltest.CheckArgminBatch(t, qs, vecs, dim, n)
		}
	}
}

// TestAccumulateParity holds Accumulate under every implementation to
// the scalar loop its contract names, bit for bit: widths around the
// vector steps, rows of random values, of every special (quiet and
// signalling NaN payloads, ±Inf, ±MaxFloat32, subnormals, −0) at shifting
// offsets, and of NaNs and infinities landing on sums that are already
// NaN or infinite, each summed in sequence as Lloyd's update sums points.
func TestAccumulateParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(107, 109))
	nan := float32(math.NaN())
	for _, dim := range []int{0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 64, 100} {
		var rows [][]float32
		for phase := range 6 {
			rows = append(rows, randVec(rng, dim), specialVec(dim, phase))
		}
		same := make([]float32, dim)
		for i := range same {
			same[i] = []float32{nan, -nan, float32(math.Inf(1)), float32(math.Inf(-1))}[i%4]
		}
		rows = append(rows, same, specialVec(dim, 3), same)
		want := make([]float64, dim)
		for _, v := range rows {
			for j, x := range v {
				want[j] += float64(x)
			}
		}
		for _, im := range kernel.Impls() {
			restore, err := kernel.SetActive(im.Name)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, dim)
			for _, v := range rows {
				kernel.Accumulate(got, v)
			}
			restore()
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("impl %q, dim %d: sums[%d] = %v (%#016x), scalar loop %v (%#016x)",
						im.Name, dim, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
				}
			}
		}
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

// BenchmarkDistanceRows times one rows-kernel dispatch over a 256-row
// block per implementation: dim 2 and 4 are narrow rows of row-major
// data (the portable loop under every implementation; a PQ codebook of
// that width is planar, see BenchmarkTableCodebook), 8 the first blocked
// width, 64 a whole fingerprint. ns/op ÷ 256 is the cost per row.
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

// BenchmarkArgminRows times one nearest-row query per implementation
// over row-major rows: 4-float rows (the exhaustive scan of the portable
// loop; the PQ shape of that width is BenchmarkArgminCodebook), and a
// whole 64-float fingerprint against a bench shard label's 158 IVF
// centroids or a full 256-row block (screened under the assembly
// implementations, exact under generic). ns/op ÷ n is the cost per row.
func BenchmarkArgminRows(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 13))
	for _, dim := range []int{4, 64} {
		for _, n := range []int{158, 256} {
			q, vecs := randVec(rng, dim), randVec(rng, n*dim)
			for _, im := range kernel.Impls() {
				b.Run("dim="+strconv.Itoa(dim)+"/n="+strconv.Itoa(n)+"/"+im.Name, func(b *testing.B) {
					restore, err := kernel.SetActive(im.Name)
					if err != nil {
						b.Fatal(err)
					}
					defer restore()
					b.SetBytes(int64(4 * n * dim))
					best := 0
					for i := 0; i < b.N; i++ {
						best += kernel.ArgminRows(q, vecs, dim, n)
					}
					sink = float64(best)
				})
			}
		}
	}
}

// BenchmarkArgminBatch times one ArgminBatch call of tile queries against
// a bench shard label's 158 IVF centroids at a whole 64-float
// fingerprint, under the dispatched implementation: tile 1 is
// ArgminRows' batch of one (IVF.Append), 4 one screening tile, 64 a run
// of the assignment pass. ns/op ÷ tile is the cost per point.
func BenchmarkArgminBatch(b *testing.B) {
	rng := rand.New(rand.NewPCG(71, 73))
	const dim, n = 64, 158
	vecs := randVec(rng, n*dim)
	for _, tile := range []int{1, 4, 64} {
		qs, out := randVec(rng, tile*dim), make([]int32, tile)
		b.Run("dim="+strconv.Itoa(dim)+"/n="+strconv.Itoa(n)+"/tile="+strconv.Itoa(tile), func(b *testing.B) {
			b.SetBytes(int64(4 * tile * n * dim))
			for i := 0; i < b.N; i++ {
				kernel.ArgminBatch(qs, vecs, dim, n, out)
			}
			sink = float64(out[0])
		})
	}
}

// BenchmarkAccumulate times the update step of one Lloyd round per
// implementation at a bench shard label's IVF shape: a training sample
// of 20 224 points of 64 floats, visited in sample order (a random
// permutation of 25 000 rows, so each row is a cache miss, as in
// training), summed into 158 clusters' float64 sums. ns/op is per point.
func BenchmarkAccumulate(b *testing.B) {
	const dim, rows, sample, k = 64, 25000, 20224, 158
	rng := rand.New(rand.NewPCG(113, 127))
	vecs := randVec(rng, rows*dim)
	order := rng.Perm(rows)[:sample]
	sums := make([]float64, k*dim)
	for _, im := range kernel.Impls() {
		b.Run("dim=64/"+im.Name, func(b *testing.B) {
			restore, err := kernel.SetActive(im.Name)
			if err != nil {
				b.Fatal(err)
			}
			defer restore()
			for i := 0; i < b.N; i++ {
				p := order[i%sample]
				ci := p % k
				kernel.Accumulate(sums[ci*dim:(ci+1)*dim], vecs[p*dim:(p+1)*dim])
			}
			sink = sums[0]
		})
	}
}

// codebook is a product-quantization subquantizer at the serving shape:
// 256 centroids of dsub floats, dimension-major, and one query subvector.
func codebook(dsub int) (q, planes []float32) {
	rng := rand.New(rand.NewPCG(9, 17))
	return randVec(rng, dsub), randVec(rng, dsub*kernel.ADCKs)
}

// BenchmarkArgminCodebook times one nearest-centroid query against a
// planar codebook per implementation — the call PQ training, the
// encoding pass and IVFPQ.Append make once per subvector (dsub 4 is
// dim 64 at M 16).
func BenchmarkArgminCodebook(b *testing.B) {
	for _, dsub := range []int{4, 2} {
		q, planes := codebook(dsub)
		for _, im := range kernel.Impls() {
			b.Run(strconv.Itoa(dsub)+"x256/"+im.Name, func(b *testing.B) {
				restore, err := kernel.SetActive(im.Name)
				if err != nil {
					b.Fatal(err)
				}
				defer restore()
				best := 0
				for i := 0; i < b.N; i++ {
					best += kernel.ArgminPlanar(q, planes, kernel.ADCKs)
				}
				sink = float64(best)
			})
		}
	}
}

// BenchmarkArgminPlanarBatch times one ArgminPlanarBatch call of tile
// points against a planar table, under the dispatched implementation. A
// dsub-4 codebook (dim 64 at M 16, 256 centroids): tile 1 is
// ArgminPlanar's batch of one (IVFPQ.Append), 4 one screening tile, 64 a
// run of the assignment pass of PQ training. The coarse quantizers of
// the bench's IVFPQ and IVF shard labels (50 and 158 centroids of 64
// floats): tile 32 is one gather of a Lloyd assignment pass, 64 a run of
// the full pass (BenchmarkArgminBatch's row-major shape). ns/op ÷ tile is
// the cost per point.
func BenchmarkArgminPlanarBatch(b *testing.B) {
	rng := rand.New(rand.NewPCG(89, 97))
	for _, c := range []struct {
		dim, n int
		tiles  []int
	}{{4, kernel.ADCKs, []int{1, 4, 64}}, {64, 50, []int{32, 64}}, {64, 158, []int{32, 64}}} {
		planes := randVec(rng, c.dim*c.n)
		for _, tile := range c.tiles {
			qs, out := randVec(rng, tile*c.dim), make([]int32, tile)
			b.Run("dim="+strconv.Itoa(c.dim)+"/n="+strconv.Itoa(c.n)+"/tile="+strconv.Itoa(tile), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kernel.ArgminPlanarBatch(qs, planes, c.dim, c.n, out)
				}
				sink = float64(out[0])
			})
		}
	}
}

// BenchmarkTableCodebook times one row of an ADC lookup table — the
// distances from a query subvector to all 256 centroids of a planar
// codebook — which an IVFPQ search builds M times per probed list.
func BenchmarkTableCodebook(b *testing.B) {
	out := make([]float64, kernel.ADCKs)
	for _, dsub := range []int{4, 2} {
		q, planes := codebook(dsub)
		for _, im := range kernel.Impls() {
			b.Run(strconv.Itoa(dsub)+"x256/"+im.Name, func(b *testing.B) {
				restore, err := kernel.SetActive(im.Name)
				if err != nil {
					b.Fatal(err)
				}
				defer restore()
				for i := 0; i < b.N; i++ {
					kernel.DistancePlanar(q, planes, out)
				}
				sink = out[0]
			})
		}
	}
}

var sink float64
