package kernel

import (
	"fmt"
	"math"
)

// Planar (dimension-major) centroid tables. A table of n centroids is
// dim planes of n floats — planes[j*n+i] is coordinate j of centroid i
// — so the vector paths read one coordinate of neighbouring centroids
// with ONE contiguous load and put one centroid in each lane. It is the
// layout every centroid table the argmin reads is resident in: each
// product-quantization codebook, a copy of each coarse quantizer, and
// the transient table of every k-means assignment pass. The distance of
// centroid i is the package comment's summation order over
// t_j = (float64(q[j]) − float64(planes[j*n+i]))²; below BlockDim that
// is the tail-only order,
//
//	s = (((t0 + t1) + t2) + …) + t[dim-1],
//
// which is bit for bit what DistanceRows returns for the same table
// stored row-major (NaN canonicalized the same way): the layout moves
// where a float is read from, never what is computed from it.

// BlockDim is the width of one block of the specified summation order.
// A row narrower than it has no blocked prefix — its distance is the
// plain ascending sum above — and the vector path of DistancePlanar
// (planarAsm) serves tables of such rows.
const BlockDim = 8

// argminBlock is how many centroids an argmin scores per pass: a whole
// PQ codebook (ADCKs centroids), on 2 KiB of stack for the exact
// distances. The screened argmin screens a block of that many centroids
// at a time too, for up to ArgminTile queries at once.
const argminBlock = ADCKs

// ArgminTile is how many queries of an ArgminPlanarBatch the assembly
// implementations screen together against each block of centroids (one
// planarScreenAsm call).
const ArgminTile = 4

// The screened argmin applies where its proof does (see the package
// comment): an assembly implementation whose screening routine the host
// can run (screenOK, per architecture), and a width that keeps the
// rounding depth K far below 2²⁴ (c ≤ 1/4, and the float64 error terms
// inside c's slack). The screen steps over 32 centroids at a time for a
// batch of one (AVX2: four vectors of eight): a block of fewer is scanned
// exactly.
const (
	screenMaxDim        = 1 << 16
	planarScreenMinRows = 32
)

// screens reports whether im runs the screened argmin over a planar
// table of width dim ≥ 1.
func screens(im *Impl, dim int) bool {
	return screenOK && im != &impls[0] && dim <= screenMaxDim
}

// checkPlanarArgs validates one planar call before dispatch: the
// assembly keeps its loops to itself and would read past a short table.
func checkPlanarArgs(name string, q, planes []float32, n int) {
	if n < 0 || len(planes) < len(q)*n {
		panic(fmt.Sprintf("kernel: %s %d table floats for %d planes of %d", name, len(planes), len(q), n))
	}
}

// planarGeneric is the portable planar routine: out[i] is the distance
// from q to centroid lo+i of the n-centroid table, for every i in
// [0, len(out)), len(q) ≥ 1, NaN canonicalized. It sweeps one plane at a
// time, so every load is contiguous and each out[i] takes its terms in
// the specified order.
func planarGeneric(q, planes []float32, n, lo int, out []float64) {
	if len(q) >= BlockDim {
		for at := 0; at < len(out); at += argminBlock {
			planarWide(q, planes, n, lo+at, out[at:min(at+argminBlock, len(out))])
		}
	} else {
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
	}
	for i, s := range out {
		if s != s {
			out[i] = math.NaN() // canonical payload: see the contract in kernel.go
		}
	}
}

// planarWide is planarGeneric's loop for a table of BlockDim or more
// floats per centroid, len(out) ≤ argminBlock: the blocked prefix swept
// one plane at a time into the 8 partial sums of every centroid, the
// fixed tree, then the tail planes — the order of the package comment,
// with every load contiguous. NaN is left uncanonicalized.
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

// argminPlanarExact is the exhaustive scan ArgminPlanarBatch is
// specified by, a block of distances at a time under im's planar
// routine.
func argminPlanarExact(im *Impl, q, planes []float32, n int) int {
	best, bestD := 0, math.Inf(1)
	var buf [argminBlock]float64
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

// DistancePlanar computes the squared kernel distance from q to every
// centroid of a planar table: out[i] for centroid i of n = len(out),
// bit for bit what DistanceRows computes over the same table stored
// row-major. planes holds len(q) planes of n floats. This is the ADC
// table build of an IVFPQ probe; below BlockDim (every codebook a
// workload builds) it runs planarAsm under an assembly implementation,
// from there up the portable loop.
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
// queries of dim floats, concatenated): the exhaustive scan's index,
// ascending with a strict < over the exact kernel distances, so ties go
// to the lowest index, a NaN distance never wins, and 0 is returned when
// no centroid is closer than +Inf (or n is 0). It is the one argmin:
// every k-means assignment pass, PQ encoding, and the nearest list of an
// IVF or IVFPQ Append (a batch of one). On the assembly implementations
// a float32 screen rules out all but a few centroids and only those reach
// the exact distance (package comment, "Screened argmin"); the queries
// are screened ArgminTile at a time, so each group of centroids is loaded
// once per tile.
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
	case !screens(im, dim):
		for i := range out {
			out[i] = int32(argminPlanarExact(im, qs[i*dim:(i+1)*dim], planes, n))
		}
	case len(out) == 1:
		out[0] = int32(argminOne(qs, planes, dim, n))
	default:
		var a [(ArgminTile + 1) * argminBlock]float32
		argminScreened(qs, planes, dim, n, out, a[:])
	}
}

// argminOne is the screened argmin's batch of one. Its screening scratch
// lives in this frame: declared in the caller, the address-taken 1 KiB
// block was zeroed on every call, exact path included (+5 % at dim 4).
//
//go:noinline
func argminOne(q, planes []float32, dim, n int) int {
	var a [argminBlock]float32
	var out [1]int32
	argminScreened(q, planes, dim, n, out[:], a[:])
	return int(out[0])
}
