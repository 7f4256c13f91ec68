package kernel

import (
	"fmt"
	"math"
)

// Planar (dimension-major) centroid tables. A table of n centroids is
// dim planes of n floats — planes[j*n+i] is coordinate j of centroid i
// — so the vector paths read one coordinate of neighbouring centroids
// with ONE contiguous load and put one centroid in each lane. It is the
// resident layout of a product-quantization subquantizer narrower than
// one block of the summation order (BlockDim: dim 64 at M 16 is 4), and
// the transient layout every k-means assignment pass (ArgminPlanarBatch)
// reads at any width. The distance of centroid i is the package
// comment's summation order over t_j = (float64(q[j]) − float64(planes[j*n+i]))²;
// below BlockDim that is the tail-only order,
//
//	s = (((t0 + t1) + t2) + …) + t[dim-1],
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

// planarWide is planarGeneric for a table of BlockDim or more floats per
// centroid, len(out) ≤ argminBlock: the blocked prefix swept one plane
// at a time into the 8 partial sums of every centroid, the fixed tree,
// then the tail planes — the order of the package comment, with every
// load contiguous. NaN is left uncanonicalized: its one caller is an
// argmin.
func planarWide(q, planes []float32, n, lo int, out []float64) {
	var p [8][argminBlock]float64
	nb := len(q) &^ 7
	for j := 0; j < nb; j++ {
		qj, pk := float64(q[j]), p[j&7][:len(out)]
		for i, v := range planes[j*n+lo : j*n+lo+len(out)] {
			d := qj - float64(v)
			pk[i] += float64(d * d)
		}
	}
	for i := range out {
		out[i] = ((p[0][i] + p[4][i]) + (p[2][i] + p[6][i])) + ((p[1][i] + p[5][i]) + (p[3][i] + p[7][i]))
	}
	for j := nb; j < len(q); j++ {
		qj := float64(q[j])
		for i, v := range planes[j*n+lo : j*n+lo+len(out)] {
			d := qj - float64(v)
			out[i] += float64(d * d)
		}
	}
}

// argminPlanarExact is the exhaustive scan ArgminPlanar and
// ArgminPlanarBatch are specified by, a block of distances at a time:
// below BlockDim under im's planar routine, from there up planarWide's.
func argminPlanarExact(im *Impl, q, planes []float32, n int) int {
	best, bestD := 0, math.Inf(1)
	var buf [argminBlock]float64
	for lo := 0; lo < n; lo += argminBlock {
		d2s := buf[:min(argminBlock, n-lo)]
		switch {
		case len(q) >= BlockDim:
			planarWide(q, planes, n, lo, d2s)
		case im == &impls[0]:
			planarGeneric(q, planes, n, lo, d2s)
		default:
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
// n-centroid planar table of any width nearest query i of qs (len(out)
// queries of dim floats, concatenated): bit for bit what
// ArgminRows(qs[i*dim:(i+1)*dim], table, dim, n) returns for the same
// table stored row-major — the exhaustive scan's index. On the assembly
// implementations the queries are screened ArgminTile at a time, so
// each group of centroids is loaded once per tile — every k-means
// assignment pass and the PQ encoding pass hand a run of points to one
// call.
func ArgminPlanarBatch(qs, planes []float32, dim, n int, out []int32) {
	if dim < 0 || len(qs) != len(out)*dim {
		panic(fmt.Sprintf("kernel: ArgminPlanarBatch %d query floats for %d queries of %d", len(qs), len(out), dim))
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
		var a [(ArgminTile + 1) * argminBlock]float32
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
	return screenOK && im != &impls[0] && dim <= screenMaxDim
}
