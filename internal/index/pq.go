package index

import (
	"math/rand/v2"

	"caltrain/internal/fingerprint"
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

// pqCodebook holds one label's trained subquantizer centroids. Each
// subquantizer's table is resident in the layout the kernel's argmin
// reads: dimension-major, dsub planes of pqKs floats. The CTIX stream is
// row-major (slot), so the layout is invisible on disk.
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
	table, k, d := i/(pqKs*cb.dsub), i/cb.dsub%pqKs, i%cb.dsub
	return table*pqKs*cb.dsub + d*pqKs + k
}

// residuals reads a label's residuals — each bucket row minus its
// coarse centroid — where they are consumed: a subvector at a time for
// one subquantizer's training sample, a row at a time while encoding.
// No matrix of them is ever stored.
type residuals struct {
	vecs      *fingerprint.Rows
	centroids []float32 // the coarse quantizer's, row-major
	assign    []int32   // the coarse list of each bucket position
	dsub      int
}

// span writes coordinates [lo, lo+len(r)) of residual p into r.
func (rs *residuals) span(p, lo int, r []float32) {
	v, cen := rs.vecs.At(p)[lo:], rs.centroids[int(rs.assign[p])*rs.vecs.Dim()+lo:]
	for d := range r {
		r[d] = v[d] - cen[d]
	}
}

// trainPQ runs k-means per subquantizer over a seeded sample of n
// residuals. Each subquantizer's sampleN×dsub block is packed into the
// workspace when its turn comes, the samples visited in one order for
// every block, so no whole sampleN×dim residual sample is ever
// resident. Training is deterministic for a fixed rng state and input
// (the kernel's bit-stability contract makes the assignment step
// reproducible across hardware paths).
func trainPQ(rs *residuals, n, m, iters, sampleCap int, rng *rand.Rand, km *kmeans) *pqCodebook {
	dsub := rs.dsub
	cb := newCodebook(m, dsub)
	sampleN := min(n, sampleCap)
	perm := km.permute(n, rng)[:sampleN]
	km.sample, km.cents = resize(km.sample, sampleN*dsub), resize(km.cents, pqKs*dsub)
	km.all = iota32(km.all, sampleN)
	block := fingerprint.NewRows(dsub, km.sample)
	for j := 0; j < m; j++ {
		for i, p := range perm {
			rs.span(int(p), j*dsub, km.sample[i*dsub:(i+1)*dsub])
		}
		// Init from the shuffled sample; with fewer than pqKs samples the
		// duplicates are harmless (strict-< argmin always picks the first).
		for k := 0; k < pqKs; k++ {
			copy(km.cents[k*dsub:(k+1)*dsub], block.At(k%sampleN))
		}
		// The planar copy lloyd assigns against is the resident table,
		// which it leaves trained.
		km.lloyd(&block, km.all, km.cents, cb.sub(j), pqKs, iters, rng)
	}
	return cb
}

// encodeTile is one encoding worker's scratch: a residual, assignTile
// residuals packed by subquantizer (pack), and their codes.
type encodeTile struct {
	r, res []float32
	codes  []byte
	near   []int32
}

// tile hands an encoding worker a tile of the workspace, allocating one
// only when every tile is taken; release gives it back. A training call
// therefore allocates one tile per concurrent worker, once.
func (km *kmeans) tile(dim, m int) *encodeTile {
	km.mu.Lock()
	defer km.mu.Unlock()
	if n := len(km.tiles); n > 0 {
		t := km.tiles[n-1]
		km.tiles = km.tiles[:n-1]
		return t
	}
	return &encodeTile{r: make([]float32, dim), res: make([]float32, assignTile*dim), codes: make([]byte, assignTile*m), near: make([]int32, assignTile)}
}

func (km *kmeans) release(t *encodeTile) {
	km.mu.Lock()
	defer km.mu.Unlock()
	km.tiles = append(km.tiles, t)
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
// argmin over its nq subvectors (strict <, so ties are deterministic).
// near is an nq-long scratch.
func (cb *pqCodebook) encode(res []float32, nq int, codes []byte, near []int32) {
	run := nq * cb.dsub
	for j := 0; j < cb.m; j++ {
		kernel.ArgminPlanarBatch(res[j*run:(j+1)*run], cb.sub(j), cb.dsub, pqKs, near[:nq])
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
		kernel.DistancePlanar(res[j*cb.dsub:(j+1)*cb.dsub], cb.sub(j), d2s[:pqKs])
		for k, d := range d2s[:pqKs] {
			tab[j*pqKs+k] = float32(d)
		}
	}
}
