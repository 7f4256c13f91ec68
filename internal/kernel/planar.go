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

// argminPlanarExact is the exhaustive scan ArgminPlanar is specified
// by, a block of distances at a time under im's planar routine.
func argminPlanarExact(im *Impl, q, planes []float32, n int) int {
	var buf [argminBlock]float64
	best, bestD := 0, math.Inf(1)
	for lo := 0; lo < n; lo += argminBlock {
		d2s := buf[:min(argminBlock, n-lo)]
		if im == &impls[0] {
			planarGeneric(q, planes, n, lo, d2s)
		} else {
			planarVector(q, planes, n, lo, d2s)
		}
		for i, d := range d2s {
			if d < bestD {
				best, bestD = lo+i, d
			}
		}
	}
	return best
}

// The planar screen steps over 32 centroids at a time for a batch of
// one (AVX2: four vectors of eight): a block of fewer is scanned exactly.
const planarScreenMinRows = 32

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
	planarVector(q, planes, len(out), 0, out)
}

// ArgminPlanarBatch writes into out[i] the index of the centroid of an
// n-centroid planar table nearest query i of qs (len(out) queries of
// dim < BlockDim floats, concatenated): bit for bit what
// ArgminPlanar(qs[i*dim:(i+1)*dim], planes, n) returns. On the assembly
// implementations the queries are screened ArgminTile at a time, so
// each group of centroids is loaded once per tile — the assignment pass
// of PQ training and the encoding pass hand a run of subvectors to one
// call.
func ArgminPlanarBatch(qs, planes []float32, dim, n int, out []int32) {
	if dim < 0 || dim >= BlockDim || len(qs) != len(out)*dim {
		panic(fmt.Sprintf("kernel: ArgminPlanarBatch %d query floats for %d queries of %d (planar tables are narrower than %d)",
			len(qs), len(out), dim, BlockDim))
	}
	if n < 0 || len(planes) < dim*n {
		panic(fmt.Sprintf("kernel: ArgminPlanarBatch %d table floats for %d planes of %d", len(planes), dim, n))
	}
	im := active.Load()
	switch {
	case dim == 0:
		clear(out)
	case !screensPlanar(im, dim):
		for i := range out {
			out[i] = int32(argminPlanarExact(im, qs[i*dim:(i+1)*dim], planes, n))
		}
	case len(out) == 1:
		out[0] = int32(argminOne(qs, planes, dim, n, true))
	default:
		var a [ArgminTile * argminBlock]float32
		argminScreened(qs, planes, dim, n, out, a[:], true)
	}
}

// ArgminPlanar returns the index of the centroid of an n-centroid
// planar table nearest q — the assignment step of product-quantization
// training and encoding. It is specified, like ArgminRows, by the
// exhaustive scan: ascending with a strict <, so ties go to the lowest
// index, a NaN distance never wins, and 0 is returned when no centroid
// is closer than +Inf (or n is 0). On the assembly implementations it
// is ArgminPlanarBatch's batch of one: a float32 screen sums each
// centroid's norm beside its dot with q, rules out all but a few
// centroids, and only those reach the exact distance (package comment,
// "Screened argmin").
func ArgminPlanar(q, planes []float32, n int) int {
	checkPlanarArgs("ArgminPlanar", q, planes, n)
	if len(q) == 0 {
		return 0
	}
	im := active.Load()
	if screensPlanar(im, len(q)) {
		return argminOne(q, planes, len(q), n, true)
	}
	return argminPlanarExact(im, q, planes, n)
}

// screensPlanar reports whether im runs the screened argmin over a
// planar table of width dim ≥ 1.
func screensPlanar(im *Impl, dim int) bool {
	return screenOK && im != &impls[0]
}
