package index

import (
	"math/rand/v2"

	"caltrain/internal/kernel"
)

// Product quantization: each dim-length residual splits into m
// contiguous dsub-length subvectors, and each subquantizer j gets its
// own k-means codebook of pqKs centroids trained on the j-th subvector
// of every training residual. A vector's code is then m uint8 centroid
// indices — m bytes instead of 4·dim — and a query scores codes through
// an ADC lookup table (kernel.ADCScan) instead of touching any float
// vector. Training residuals (vector minus its coarse centroid) rather
// than raw vectors keeps the quantization error proportional to the
// within-list spread, the standard IVFPQ construction.

// pqKs is the per-subquantizer codebook size, fixed by the kernel's ADC
// contract (one code element = one uint8).
const pqKs = kernel.ADCKs

// pqCodebook holds one label's trained subquantizer centroids.
type pqCodebook struct {
	m, dsub   int
	centroids []float32 // m × pqKs × dsub, row-major by subquantizer
}

// sub returns subquantizer j's centroid table (pqKs rows of dsub).
func (cb *pqCodebook) sub(j int) []float32 {
	return cb.centroids[j*pqKs*cb.dsub : (j+1)*pqKs*cb.dsub]
}

// zeroCodebook is the degenerate codebook for a class born from a
// single append: every centroid is the origin, so every residual
// encodes to code 0 and the ADC table cell is the residual's own
// squared subvector norm — the scan degrades to the exact
// query-to-centroid distance instead of returning garbage.
func zeroCodebook(m, dsub int) *pqCodebook {
	return &pqCodebook{m: m, dsub: dsub, centroids: make([]float32, m*pqKs*dsub)}
}

// trainPQ runs k-means per subquantizer over a seeded sample of n
// dim-length residuals; residual(p, r) writes residual p into r, and is
// called for the sampled rows only. Training is deterministic for a
// fixed rng state and input (the kernel's bit-stability contract makes
// the assignment step reproducible across hardware paths).
func trainPQ(residual func(p int, r []float32), n, dim, m, iters, sampleCap int, rng *rand.Rand) *pqCodebook {
	dsub := dim / m
	cb := &pqCodebook{m: m, dsub: dsub, centroids: make([]float32, m*pqKs*dsub)}
	sampleN := min(n, sampleCap)
	perm := rng.Perm(n)[:sampleN]
	res := make([]float32, sampleN*dim)
	for i, p := range perm {
		residual(p, res[i*dim:(i+1)*dim])
	}

	// Scratch shared across subquantizers: the sampled subvectors packed
	// contiguously and their identity position list.
	sub := rows{dim: dsub, nb: sampleN, base: make([]float32, sampleN*dsub)}
	all := make([]int32, sampleN)
	for i := range all {
		all[i] = int32(i)
	}

	for j := 0; j < m; j++ {
		for i := range perm {
			copy(sub.at(i), res[i*dim+j*dsub:i*dim+(j+1)*dsub])
		}
		cents := cb.sub(j)
		// Init from the shuffled sample; with fewer than pqKs samples the
		// duplicates are harmless (strict-< argmin always picks the first).
		for k := 0; k < pqKs; k++ {
			copy(cents[k*dsub:(k+1)*dsub], sub.at(k%sampleN))
		}
		lloyd(&sub, all, cents, pqKs, iters, rng)
	}
	return cb
}

// encode writes the m-byte code of one dim-length residual: per
// subquantizer, the index of the nearest centroid (strict-< argmin, so
// ties are deterministic).
func (cb *pqCodebook) encode(res []float32, code []byte) {
	for j := 0; j < cb.m; j++ {
		r := res[j*cb.dsub : (j+1)*cb.dsub]
		code[j] = byte(kernel.ArgminRows(r, cb.sub(j), cb.dsub, pqKs))
	}
}

// table fills one query's ADC lookup table for a dim-length residual:
// tab[j*pqKs+k] is the squared kernel distance between the query
// residual's j-th subvector and centroid k of subquantizer j — one
// rows-kernel dispatch per subquantizer. d2s is a ≥pqKs scratch.
func (cb *pqCodebook) table(res []float32, tab []float32, d2s []float64) {
	for j := 0; j < cb.m; j++ {
		r := res[j*cb.dsub : (j+1)*cb.dsub]
		kernel.DistanceRows(r, cb.sub(j), cb.dsub, d2s[:pqKs])
		for k, d := range d2s[:pqKs] {
			tab[j*pqKs+k] = float32(d)
		}
	}
}
