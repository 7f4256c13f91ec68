package kernel

import (
	"fmt"
	"math"
)

// Planar (dimension-major) centroid tables: the layout of a table whose
// rows are narrower than one block of the summation order (BlockDim),
// which is every product-quantization subquantizer at dim/M < 8. Such a
// table of n centroids is dim planes of n floats — planes[j*n+i] is
// coordinate j of centroid i — so the vector paths read one coordinate
// of rowLanes neighbouring centroids with ONE contiguous load and put
// one centroid in each double lane. The distance of centroid i is the
// tail-only order of the package comment,
//
//	s = (((t0 + t1) + t2) + …) + t[dim-1],   t_j = (float64(q[j]) − float64(planes[j*n+i]))²
//
// which is bit for bit what DistanceRows returns for the same table
// stored row-major (NaN canonicalized the same way): the layout moves
// where a float is read from, never what is computed from it.

// BlockDim is the width of one block of the specified summation order.
// A row narrower than it has no blocked prefix — its distance is the
// plain ascending sum above — and a centroid table of such rows is the
// kind DistancePlanar and ArgminPlanar read dimension-major.
const BlockDim = 8

// checkPlanarArgs validates one planar call before dispatch: the
// assembly keeps its loops to itself and would read past a short table.
func checkPlanarArgs(name string, q, planes []float32, n int) {
	if len(q) >= BlockDim {
		panic(fmt.Sprintf("kernel: %s query has %d dims, planar tables are narrower than %d", name, len(q), BlockDim))
	}
	if n < 0 || len(planes) < len(q)*n {
		panic(fmt.Sprintf("kernel: %s %d table floats for %d planes of %d", name, len(planes), len(q), n))
	}
}

// planarGeneric is the portable planar routine: out[i] is the distance
// from q to centroid lo+i of the n-centroid table, for every i in
// [0, len(out)), len(q) ≥ 1. It sweeps one plane at a time, so every
// load is contiguous and each out[i] takes its terms in ascending j.
func planarGeneric(q, planes []float32, n, lo int, out []float64) {
	for j, x := range q {
		qj := float64(x)
		plane := planes[j*n+lo : j*n+lo+len(out)]
		if j == 0 {
			for i, v := range plane {
				d := qj - float64(v)
				out[i] = float64(d * d)
			}
			continue
		}
		for i, v := range plane {
			d := qj - float64(v)
			out[i] += float64(d * d)
		}
	}
	for i, s := range out {
		if s != s {
			out[i] = math.NaN() // canonical payload: see the contract in kernel.go
		}
	}
}

// argminPlanarGeneric is the exhaustive scan ArgminPlanar is specified
// by, a block of distances at a time.
func argminPlanarGeneric(q, planes []float32, n int) int {
	var buf [argminBlock]float64
	best, bestD := 0, math.Inf(1)
	for lo := 0; lo < n; lo += argminBlock {
		d2s := buf[:min(argminBlock, n-lo)]
		planarGeneric(q, planes, n, lo, d2s)
		for i, d := range d2s {
			if d < bestD {
				best, bestD = lo+i, d
			}
		}
	}
	return best
}

// DistancePlanar computes the squared kernel distance from q to every
// centroid of a planar table: out[i] for centroid i of n = len(out),
// bit for bit what DistanceRows computes over the same table stored
// row-major. len(q) must be below BlockDim and planes hold len(q)
// planes of n floats. This is the ADC table build of an IVFPQ probe.
func DistancePlanar(q, planes []float32, out []float64) {
	checkPlanarArgs("DistancePlanar", q, planes, len(out))
	if len(q) == 0 {
		clear(out)
		return
	}
	if active.Load() == &impls[0] {
		planarGeneric(q, planes, len(out), 0, out)
		return
	}
	planarVector(q, planes, out)
}

// ArgminPlanar returns the index of the centroid of an n-centroid
// planar table nearest q — the assignment step of product-quantization
// training and encoding. It is specified, like ArgminRows, by the
// exhaustive scan: ascending with a strict <, so ties go to the lowest
// index, a NaN distance never wins, and 0 is returned when no centroid
// is closer than +Inf (or n is 0). The vector paths fuse the scan into
// the distance loop: each double lane keeps the best distance and index
// of the centroids that passed through it (strict <, ascending), and
// the lanes are reduced by (distance, lowest index), which is the same
// answer without a distance ever being stored.
func ArgminPlanar(q, planes []float32, n int) int {
	checkPlanarArgs("ArgminPlanar", q, planes, n)
	if len(q) == 0 {
		return 0
	}
	if active.Load() == &impls[0] {
		return argminPlanarGeneric(q, planes, n)
	}
	return argminPlanarVector(q, planes, n)
}
