//go:build (amd64 || arm64) && !noasm

package kernel

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
	"unsafe"
)

// TestScreenBoundWidensOffOrigin moves rows and queries 1e3 from the
// origin in every coordinate (‖q‖ ≈ 8e3 at dim 64). The screening error
// scales with (‖q‖ + ‖v‖)², not with the distances, so far more rows are
// candidates than for the same cloud at the origin — the count is
// logged — and every answer is still the exhaustive scan's.
func TestScreenBoundWidensOffOrigin(t *testing.T) {
	if !screenOK || Active() == "generic" {
		t.Skip("no screening routine on this host")
	}
	rng := rand.New(rand.NewPCG(79, 83))
	const dim, n, nq = 64, 158, 64
	for _, off := range []float32{0, 1e3} {
		cloud := func(rows int) []float32 {
			v := make([]float32, rows*dim)
			for i := range v {
				v[i] = off + float32(rng.NormFloat64())
			}
			return v
		}
		qs, vecs := cloud(nq), cloud(n)
		got := make([]int32, nq)
		ArgminBatch(qs, vecs, dim, n, got)
		for i := range got {
			want, bestD := 0, math.Inf(1)
			for r := 0; r < n; r++ {
				if d := sqDistGeneric(qs[i*dim:(i+1)*dim], vecs[r*dim:(r+1)*dim]); d < bestD {
					want, bestD = r, d
				}
			}
			if int(got[i]) != want {
				t.Fatalf("offset %g: query %d: ArgminBatch = %d, exhaustive %d", off, i, got[i], want)
			}
		}
		var a [ArgminTile * argminBlock]float32
		total := 0
		for t0 := 0; t0 < nq; t0 += ArgminTile {
			res := screenResult{bound: newScreenBound(dim)}
			screenAsm(&qs[t0*dim], &vecs[0], dim, n, ArgminTile, &a[0], &res)
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
		t.Logf("rows offset %g from the origin: %.2f candidates per query of %d rows", off, per, n)
		if off == 0 && per > 1.5 {
			t.Errorf("%.2f candidates per query at the origin: the bound is far looser than it should be", per)
		}
	}
}

// TestScreenResultLayout pins the field offsets of screenResult that
// both assembly routines address by number.
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
