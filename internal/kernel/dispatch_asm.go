//go:build (amd64 || arm64) && !noasm

package kernel

import "math"

// Go side of the assembly implementations: three routines per
// architecture (kernel_amd64.s, kernel_arm64.s) behind the same names,
// and the wrappers that fill the Impl slots from them.

// pairAsm is the pair kernel over two n-length vectors, n ≥ 1.
//
//go:noescape
func pairAsm(q, v *float32, n int) float64

// rowsBlockedAsm scores n dim-length rows against q exactly as n
// pairAsm calls would, with the row loop in assembly; any dim ≥ 1.
// (pairAsm is not its n == 1 case only because the out pointer and row
// bookkeeping cost the pair path ~6 % at dim 64, which DistanceGather
// would pay per candidate.)
//
//go:noescape
func rowsBlockedAsm(q, vecs *float32, dim, n int, out *float64)

// rowsSmallAsm scores n rows of width 1 ≤ dim ≤ 7 against the widened
// query qd, one row per double lane; n must be a multiple of rowLanes.
//
//go:noescape
func rowsSmallAsm(qd *float64, vecs *float32, dim, n int, out *float64)

// rowsScreenAsm is the screening pass of the screened argmin: float32
// approximations of the n ≥ 4 row distances (dim ≥ 8) into out, and the
// unsigned minimum and maximum of their bit patterns.
//
//go:noescape
func rowsScreenAsm(q, vecs *float32, dim, n int, out *float32) (lo, hi uint32)

func sqDistVector(q, v []float32) float64 {
	if len(q) == 0 {
		return 0
	}
	return pairAsm(&q[0], &v[0], len(q))
}

// rowsVector is the Rows slot of the assembly implementation. Tail-only
// widths go through the lane-per-row routine in whole lane groups; the
// rows left over (fewer than rowLanes) and every wider row take the
// blocked routine, which realises the same order for any width.
func rowsVector(q, vecs []float32, dim int, out []float64) {
	n := len(out)
	if n == 0 {
		return
	}
	if dim == 0 {
		clear(out)
		return
	}
	done := 0
	if dim < 8 {
		var qd [7]float64
		for j, x := range q {
			qd[j] = float64(x)
		}
		if done = n &^ (rowLanes - 1); done > 0 {
			rowsSmallAsm(&qd[0], &vecs[0], dim, done, &out[0])
		}
		if done == n {
			return
		}
	}
	rowsBlockedAsm(&q[0], &vecs[done*dim], dim, n-done, &out[done])
}

// argminScreened is the screened argmin (package comment, "Screened
// argmin"): per block of argminBlock rows, screen every row in float32,
// then run the exact pair kernel on the candidates — the rows whose
// screening value is within the proved margin of the block minimum —
// ascending and strict-<, which is the exhaustive scan's answer. In a
// block of fewer than screenMinRows rows, or with a screening value
// outside the safe range, every row is a candidate: the exhaustive
// scan itself.
func argminScreened(q, vecs []float32, dim, n int) int {
	tau := float64(dim+8) * 0x1p-22
	eta := float64(dim) * 0x1p-148
	var a [argminBlock]float32
	best, bestD := 0, math.Inf(1)
	for r0 := 0; r0 < n; r0 += argminBlock {
		nb := min(argminBlock, n-r0)
		block := vecs[r0*dim:]
		limit := float32(math.Inf(1))
		if nb >= screenMinRows {
			if lo, hi := rowsScreenAsm(&q[0], &block[0], dim, nb, &a[0]); hi <= screenSafe {
				limit = float32(float64(math.Float32frombits(lo))*(1+tau) + eta)
			}
		}
		for i, ai := range a[:nb] {
			if !(ai > limit) { // under the +Inf limit a NaN is a candidate too
				if d := pairAsm(&q[0], &block[i*dim], dim); d < bestD {
					best, bestD = r0+i, d
				}
			}
		}
	}
	return best
}
