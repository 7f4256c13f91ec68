//go:build (amd64 || arm64) && !noasm

package kernel

import "math"

// Go side of the assembly implementations: four routines per
// architecture (kernel_amd64.s, kernel_arm64.s) behind the same names,
// and the wrappers that fill the Impl slots from them.

// pairAsm is the pair kernel over two n-length vectors, n ≥ 1.
//
//go:noescape
func pairAsm(q, v *float32, n int) float64

// rowsBlockedAsm scores n ≥ 1 dim-length rows against q exactly as n
// pairAsm calls would, with the row loop in assembly; any dim ≥ 1.
// (pairAsm is not its n == 1 case only because the out pointer and row
// bookkeeping cost the pair path ~6 % at dim 64, which DistanceGather
// would pay per candidate.)
//
//go:noescape
func rowsBlockedAsm(q, vecs *float32, dim, n int, out *float64)

// planarBest is the fused argmin's state, one centroid per double lane:
// on entry d is the best distance so far of each lane (+Inf) and i the
// index of the centroid the lane sees first (its lane number); on
// return d and i are each lane's best distance and the index it was
// found at (0 for a lane in which nothing beat d).
type planarBest struct {
	d [rowLanes]float64
	i [rowLanes]int64
}

// planarAsm scores n centroids (a positive multiple of rowLanes) of a
// planar table against the widened query qd, one centroid per double
// lane: dim planes (1 ≤ dim < BlockDim) stride floats apart. With out
// non-nil it writes the n distances there, NaN canonicalized, and
// leaves best alone; with out nil it stores nothing and folds every
// distance into best, strict < per lane.
//
//go:noescape
func planarAsm(qd *float64, planes *float32, dim, stride, n int, out *float64, best *planarBest)

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

// rowsVector is the Rows slot of the assembly implementation. Rows of
// at least one block go to the blocked routine. Narrower rows have
// nothing for it to vectorize over — it would run them as a scalar tail
// behind an empty reduction, four times the cost of the portable loop,
// which is unrolled for exactly these widths — so they take the
// portable loop; the tables that are hot at those widths (PQ codebooks)
// are stored dimension-major and go through planarAsm instead.
func rowsVector(q, vecs []float32, dim int, out []float64) {
	if dim < BlockDim {
		rowsGeneric(q, vecs, dim, out)
		return
	}
	if len(out) > 0 {
		rowsBlockedAsm(&q[0], &vecs[0], dim, len(out), &out[0])
	}
}

// widen is the query of a planar call in float64, as planarAsm
// broadcasts it.
func widen(q []float32) (qd [BlockDim - 1]float64) {
	for j, x := range q {
		qd[j] = float64(x)
	}
	return qd
}

// planarVector is DistancePlanar under the assembly implementation:
// whole lane groups in assembly, the centroids left over (fewer than
// rowLanes) in portable Go.
func planarVector(q, planes []float32, out []float64) {
	n := len(out)
	done := n &^ (rowLanes - 1)
	if done > 0 {
		qd := widen(q)
		planarAsm(&qd[0], &planes[0], len(q), n, done, &out[0], nil)
	}
	if done < n {
		planarGeneric(q, planes, n, done, out[done:])
	}
}

// argminPlanarVector is ArgminPlanar under the assembly implementation
// (see there): the fused scan over whole lane groups, the lanes reduced
// by (distance, lowest index) — a lane nothing passed through reports
// +Inf and never wins — then the leftover centroids, which come after
// every lane's in the ascending order, by strict <.
func argminPlanarVector(q, planes []float32, n int) int {
	best, bestD, done := 0, math.Inf(1), n&^(rowLanes-1)
	if done > 0 {
		qd := widen(q)
		var lanes planarBest
		for l := range lanes.d {
			lanes.d[l], lanes.i[l] = math.Inf(1), int64(l)
		}
		planarAsm(&qd[0], &planes[0], len(q), n, done, nil, &lanes)
		for l, d := range lanes.d {
			if i := int(lanes.i[l]); d < bestD || (d == bestD && i < best) {
				best, bestD = i, d
			}
		}
	}
	if done < n {
		var tail [rowLanes]float64
		rest := tail[:n-done]
		planarGeneric(q, planes, n, done, rest)
		for i, d := range rest {
			if d < bestD {
				best, bestD = done+i, d
			}
		}
	}
	return best
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
