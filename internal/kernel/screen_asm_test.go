//go:build (amd64 || arm64) && !noasm

package kernel

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
	"unsafe"
)

// TestScreenBoundWidensOffOrigin moves centroids and queries 1e3 from
// the origin in every coordinate (‖q‖ ≈ 8e3 for a dim-64 coarse
// quantizer, 2e3 for a dsub-4 codebook). The screening error scales with
// (‖q‖ + ‖c‖)², not with the distances, so far more centroids are
// candidates than for the same cloud at the origin — the count is logged
// — and every answer is still the exhaustive scan's.
func TestScreenBoundWidensOffOrigin(t *testing.T) {
	if !screenOK || Active() == "generic" {
		t.Skip("no screening routine on this host")
	}
	rng := rand.New(rand.NewPCG(79, 83))
	for _, c := range []struct{ dim, n int }{{64, 158}, {4, argminBlock}} {
		const nq = 64
		dim, n := c.dim, c.n
		for _, off := range []float32{0, 1e3} {
			cloud := func(rows int) []float32 {
				v := make([]float32, rows*dim)
				for i := range v {
					v[i] = off + float32(rng.NormFloat64())
				}
				return v
			}
			qs, vecs := cloud(nq), cloud(n)
			table := make([]float32, n*dim)
			for i := 0; i < n; i++ {
				for j := 0; j < dim; j++ {
					table[j*n+i] = vecs[i*dim+j]
				}
			}
			got := make([]int32, nq)
			ArgminPlanarBatch(qs, table, dim, n, got)
			for i := range got {
				want, bestD := 0, math.Inf(1)
				for r := 0; r < n; r++ {
					if d := sqDistGeneric(qs[i*dim:(i+1)*dim], vecs[r*dim:(r+1)*dim]); d < bestD {
						want, bestD = r, d
					}
				}
				if int(got[i]) != want {
					t.Fatalf("dim %d, offset %g: query %d: argmin = %d, exhaustive %d", dim, off, i, got[i], want)
				}
			}
			var a [ArgminTile * argminBlock]float32
			var norms [argminBlock]float32
			total := 0
			for t0 := 0; t0 < nq; t0 += ArgminTile {
				res := screenResult{bound: newScreenBound(dim)}
				planarNormsAsm(&table[0], dim, n, n, &norms[0])
				planarScreenAsm(&qs[t0*dim], &table[0], &norms[0], dim, n, n, ArgminTile, &a[0], &res)
				screenSelectAsm(&a[0], n, ArgminTile, &res)
				for s := range ArgminTile {
					for w, word := range res.cand[s][:(n+63)/64] {
						if rest := n - 64*w; rest < 64 {
							word &= 1<<rest - 1
						}
						total += bits.OnesCount64(word)
					}
				}
			}
			per := float64(total) / nq
			t.Logf("dim %d, centroids offset %g from the origin: %.2f candidates per query of %d", dim, off, per, n)
			if off == 0 && per > 1.5 {
				t.Errorf("%.2f candidates per query at the origin: the bound is far looser than it should be", per)
			}
		}
	}
}

// TestPlanarScreenValues holds planarScreenAsm and planarNormsAsm
// themselves to what the screened argmin relies on, at the narrow widths
// of a PQ codebook and wide ones around the 8-float blocks of ‖q‖², row
// counts around their steps, and tiles of one to four queries: every
// value within the proved error of the real ‖c‖² − 2·q·c (the norms a
// tile reads within it of ‖c‖²), each slot's minimum the smallest of its
// values, its ‖q‖² within the proved error, and nothing written outside
// the values of its rows and slots (a batch of one owns 1 KiB of
// scratch only) or past the n norms.
func TestPlanarScreenValues(t *testing.T) {
	if !screenOK || Active() == "generic" {
		t.Skip("no screening routine on this host")
	}
	rng := rand.New(rand.NewPCG(101, 103))
	const sentinel = float32(-1234.5)
	for _, dim := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 100} {
		for _, n := range []int{32, 33, 40, 41, 47, 63, 100, 158, 255, 256} {
			for nq := 1; nq <= ArgminTile; nq++ {
				stride := n + 3 // the block is the middle of a wider table
				table := make([]float32, dim*stride)
				for i := range table {
					table[i] = float32(rng.NormFloat64()) * 4
				}
				qs := make([]float32, nq*dim)
				for i := range qs {
					qs[i] = float32(rng.NormFloat64()) * 4
				}
				var a [ArgminTile * argminBlock]float32
				for i := range a {
					a[i] = sentinel
				}
				res := screenResult{bound: newScreenBound(dim)}
				var norms [argminBlock + 1]float32
				for i := range norms {
					norms[i] = sentinel
				}
				planarNormsAsm(&table[2], dim, stride, n, &norms[0])
				planarScreenAsm(&qs[0], &table[2], &norms[0], dim, stride, n, nq, &a[0], &res)
				k := float64(dim + 4)
				c := k*0x1p-24/(1-k*0x1p-24) + 0x1p-23
				for i, got := range norms {
					if i >= n {
						if got != sentinel {
							t.Fatalf("dim %d, n %d: norm %d written (%v)", dim, n, i, got)
						}
						continue
					}
					norm := 0.0
					for j := 0; j < dim; j++ {
						v := float64(table[j*stride+2+i])
						norm += v * v
					}
					if err := math.Abs(float64(got) - norm); err > c*norm {
						t.Fatalf("dim %d, n %d: norm %d = %v, real %v: error %g past the bound", dim, n, i, got, norm, err)
					}
				}
				for slot := range ArgminTile {
					q := qs[min(slot, nq-1)*dim:][:dim]
					qq := 0.0
					for _, x := range q {
						qq += float64(x) * float64(x)
					}
					qn := math.Sqrt(qq)
					for i := range argminBlock {
						got := a[slot*argminBlock+i]
						if nq == 1 && slot > 0 || i >= n {
							if got != sentinel {
								t.Fatalf("dim %d, n %d, nq %d: slot %d row %d written (%v)", dim, n, nq, slot, i, got)
							}
							continue
						}
						norm, dot := 0.0, 0.0
						for j, x := range q {
							v := float64(table[j*stride+2+i])
							norm += v * v
							dot += float64(x) * v
						}
						want := norm - 2*dot
						if err := math.Abs(float64(got) - want); err > c*math.Pow(qn+math.Sqrt(norm), 2) {
							t.Fatalf("dim %d, n %d, nq %d: slot %d row %d = %v, real %v: error %g past the bound", dim, n, nq, slot, i, got, want, err)
						}
					}
					if slot >= nq {
						continue
					}
					m := a[slot*argminBlock]
					for _, v := range a[slot*argminBlock : slot*argminBlock+n] {
						m = min(m, v)
					}
					if res.lim[slot] != m {
						t.Fatalf("dim %d, n %d, nq %d: slot %d minimum %v, values' %v", dim, n, nq, slot, res.lim[slot], m)
					}
					if err := math.Abs(float64(res.qq[slot]) - qq); err > c*qq {
						t.Fatalf("dim %d, nq %d: slot %d ‖q‖² = %v, real %v", dim, nq, slot, res.qq[slot], qq)
					}
				}
			}
		}
	}
}

// TestScreenResultLayout pins the field offsets of screenResult that
// both screening routines address by number.
func TestScreenResultLayout(t *testing.T) {
	var r screenResult
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"bound.a", unsafe.Offsetof(r.bound) + unsafe.Offsetof(r.bound.a), 0},
		{"bound.b", unsafe.Offsetof(r.bound) + unsafe.Offsetof(r.bound.b), 8},
		{"bound.c0", unsafe.Offsetof(r.bound) + unsafe.Offsetof(r.bound.c0), 16},
		{"lim", unsafe.Offsetof(r.lim), 24},
		{"qq", unsafe.Offsetof(r.qq), 40},
		{"cand", unsafe.Offsetof(r.cand), 56},
	} {
		if f.got != f.want {
			t.Errorf("screenResult.%s at offset %d, the assembly reads %d", f.name, f.got, f.want)
		}
	}
}
