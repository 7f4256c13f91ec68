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

// pqCodebook holds one label's trained subquantizer centroids. A
// subquantizer's table is resident in the layout the kernel's argmin
// reads at its width: dimension-major (dsub planes of pqKs floats) when
// dsub is below kernel.BlockDim, where a row has no whole block to
// vectorize over, and row-major (pqKs rows of dsub) from there up. The
// CTIX stream is row-major either way (slot), so the layout is
// invisible on disk.
type pqCodebook struct {
	m, dsub   int
	centroids []float32 // m tables of pqKs×dsub floats
}

// newCodebook returns the all-zero codebook, which is also the
// degenerate codebook of a class born from a single append: every
// centroid is the origin, so every residual encodes to code 0 and the
// ADC table cell is the residual's own squared subvector norm — the scan
// degrades to the exact query-to-centroid distance instead of returning
// garbage.
func newCodebook(m, dsub int) *pqCodebook {
	return &pqCodebook{m: m, dsub: dsub, centroids: make([]float32, m*pqKs*dsub)}
}

// planar reports whether a resident codebook of dim-wide subquantizers
// is kept dimension-major rather than row-major.
func planar(dim int) bool { return dim < kernel.BlockDim }

// transpose writes the n×dim row-major table src dimension-major into
// dst: dst[j*n+i] = src[i*dim+j].
func transpose(dst, src []float32, n, dim int) {
	for i := 0; i < n; i++ {
		for j, v := range src[i*dim : (i+1)*dim] {
			dst[j*n+i] = v
		}
	}
}

// sub returns subquantizer j's centroid table.
func (cb *pqCodebook) sub(j int) []float32 {
	return cb.centroids[j*pqKs*cb.dsub : (j+1)*pqKs*cb.dsub]
}

// slot maps position i of the row-major stream the CTIX format carries
// (subquantizer, centroid, coordinate) to where centroids keeps that
// float.
func (cb *pqCodebook) slot(i int) int {
	if !planar(cb.dsub) {
		return i
	}
	table, k, d := i/(pqKs*cb.dsub), i/cb.dsub%pqKs, i%cb.dsub
	return table*pqKs*cb.dsub + d*pqKs + k
}

// trainPQ runs k-means per subquantizer over a seeded sample of n
// dim-length residuals; residual(p, r) writes residual p into r, and is
// called for the sampled rows only. Training is deterministic for a
// fixed rng state and input (the kernel's bit-stability contract makes
// the assignment step reproducible across hardware paths).
func trainPQ(residual func(p int, r []float32), n, dim, m, iters, sampleCap int, rng *rand.Rand, km *kmeans) *pqCodebook {
	dsub := dim / m
	cb := newCodebook(m, dsub)
	sampleN := min(n, sampleCap)
	perm := rng.Perm(n)[:sampleN]

	// The sampled residuals, packed by subquantizer as they are computed:
	// block j is the sampleN dsub-length rows subquantizer j trains on.
	packed := make([]float32, m*sampleN*dsub)
	r := make([]float32, dim)
	for i, p := range perm {
		residual(p, r)
		cb.pack(packed, r, i, sampleN)
	}
	all := make([]int32, sampleN)
	for i := range all {
		all[i] = int32(i)
	}

	cents := make([]float32, pqKs*dsub) // lloyd's row-major table, reused
	for j := 0; j < m; j++ {
		sub := rows{dim: dsub, nb: sampleN, base: packed[j*sampleN*dsub : (j+1)*sampleN*dsub]}
		// Init from the shuffled sample; with fewer than pqKs samples the
		// duplicates are harmless (strict-< argmin always picks the first).
		for k := 0; k < pqKs; k++ {
			copy(cents[k*dsub:(k+1)*dsub], sub.at(k%sampleN))
		}
		if planar(dsub) {
			// The planar copy lloyd assigns against is the resident table,
			// which it leaves trained.
			km.lloyd(&sub, all, cents, cb.sub(j), pqKs, iters, rng)
			continue
		}
		km.table = resize(km.table, pqKs*dsub)
		km.lloyd(&sub, all, cents, km.table, pqKs, iters, rng)
		copy(cb.sub(j), cents)
	}
	return cb
}

// pack copies the dim-length residual r into slot i of a block of nq
// residuals packed by subquantizer: subvector j of residual i goes to
// dst[(j*nq+i)*dsub:], so the nq subvectors subquantizer j reads are one
// contiguous run. A block of one is the residual as it lies.
func (cb *pqCodebook) pack(dst, r []float32, i, nq int) {
	for j := 0; j < cb.m; j++ {
		copy(dst[(j*nq+i)*cb.dsub:], r[j*cb.dsub:(j+1)*cb.dsub])
	}
}

// encode writes the m-byte codes of the nq residuals of a packed block
// (pack) into codes, row-major: per subquantizer, one batched kernel
// argmin over its nq subvectors in the table's resident layout (strict
// <, so ties are deterministic). near is an nq-long scratch.
func (cb *pqCodebook) encode(res []float32, nq int, codes []byte, near []int32) {
	run := nq * cb.dsub
	for j := 0; j < cb.m; j++ {
		qs, table := res[j*run:(j+1)*run], cb.sub(j)
		if planar(cb.dsub) {
			kernel.ArgminPlanarBatch(qs, table, cb.dsub, pqKs, near[:nq])
		} else {
			kernel.ArgminBatch(qs, table, cb.dsub, pqKs, near[:nq])
		}
		for i, c := range near[:nq] {
			codes[i*cb.m+j] = byte(c)
		}
	}
}

// table fills one query's ADC lookup table for a dim-length residual:
// tab[j*pqKs+k] is the squared kernel distance between the query
// residual's j-th subvector and centroid k of subquantizer j — one
// kernel dispatch per subquantizer. d2s is a ≥pqKs scratch.
func (cb *pqCodebook) table(res []float32, tab []float32, d2s []float64) {
	for j := 0; j < cb.m; j++ {
		r := res[j*cb.dsub : (j+1)*cb.dsub]
		if planar(cb.dsub) {
			kernel.DistancePlanar(r, cb.sub(j), d2s[:pqKs])
		} else {
			kernel.DistanceRows(r, cb.sub(j), cb.dsub, d2s[:pqKs])
		}
		for k, d := range d2s[:pqKs] {
			tab[j*pqKs+k] = float32(d)
		}
	}
}
