package kernel_test

import (
	"encoding/binary"
	"math"
	"testing"

	"caltrain/internal/kernel"
	"caltrain/internal/kernel/kerneltest"
)

// FuzzDistanceParity feeds raw bytes — reinterpreted as float32 vectors,
// so NaN payloads, infinities, and subnormals arise from the byte space —
// through every registered SqDist implementation and fails on any bitwise
// divergence from the portable reference. off shifts the slices to
// exercise vector-unaligned base pointers.
func FuzzDistanceParity(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(0))
	f.Add([]byte{0, 0, 128, 63}, []byte{0, 0, 128, 191}, byte(0))
	f.Fuzz(func(t *testing.T, qb, vb []byte, off byte) {
		q, v := kerneltest.Pair(qb, vb, off)
		kerneltest.CheckPair(t, q, v)
	})
}

// FuzzDistanceBatchParity drives the batched entry points (DistanceBatch,
// DistanceRows, DistanceGather) with fuzz-chosen shapes — dim, row count,
// and query count all straddle the 8-wide block and 256-row scan-block
// boundaries under the modulus — and fails unless every cell matches a
// pairwise reference call bit-for-bit.
func FuzzDistanceBatchParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, byte(1), byte(1), byte(1))
	f.Add([]byte{0x7f, 0xc0, 0, 0, 0xff, 0x80, 0, 0}, byte(2), byte(9), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, nq, n, dim byte) {
		d := 1 + int(dim)%17
		numQ := 1 + int(nq)%4
		numV := 1 + int(n)%300
		need := (numQ + numV) * d
		vals := kerneltest.FromBytes(data)
		if len(vals) == 0 {
			vals = []float32{0}
		}
		buf := make([]float32, need)
		for i := range buf {
			buf[i] = vals[i%len(vals)]
		}
		kerneltest.CheckBatch(t, buf[:numQ*d], buf[numQ*d:], d)
	})
}

// FuzzRowsParity drives the rows kernel — every registered
// implementation, the dispatched DistanceRows and ArgminRows — with
// fuzz-chosen shapes. Half the inputs land on widths 0–9, where the
// vector paths put one row per double lane, the other half on the
// adversarial Dims() list; row counts straddle the lane count (not a
// multiple of 2 or 4) and the 256-row argmin block; off shifts the
// rows and the query off vector-aligned bases; and values come from the
// raw byte space, so NaN payloads (canonicalised per lane), infinities
// and subnormals all occur.
func FuzzRowsParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, byte(8), uint16(5), byte(0))
	f.Add([]byte{0x7f, 0xc0, 0, 0, 0xff, 0x80, 0, 0, 0, 0, 0x80, 0x3f}, byte(6), uint16(7), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, width byte, rows uint16, off byte) {
		dim := int(width/2) % 10
		if width%2 == 1 {
			dims := kerneltest.Dims()
			dim = dims[int(width/2)%len(dims)]
		}
		n := int(rows) % 600
		if dim > 129 {
			n %= 40
		}
		vals := kerneltest.FromBytes(data)
		if len(vals) == 0 {
			vals = []float32{0}
		}
		shift := int(off) % 4
		buf := make([]float32, shift+(n+1)*dim+shift)
		for i := range buf {
			buf[i] = vals[i%len(vals)]
		}
		vecs := buf[shift : shift+n*dim]
		q := buf[len(buf)-dim:]
		kerneltest.CheckRows(t, q, vecs, n)
	})
}

// toBytes is the inverse of kerneltest.FromBytes: how the adversarial
// table becomes a seed corpus.
func toBytes(v []float32) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// FuzzArgminParity mutates the adversarial argmin table (the seed
// corpus is argminCases at compact shapes): the query and the rows
// arrive as raw float32 bytes, so the fuzzer perturbs single ulps of a
// planted tie, flips a coordinate to NaN or to a magnitude whose square
// leaves float32, and resizes both — and ArgminRows under every
// implementation must still return the exhaustive exact scan's index.
func FuzzArgminParity(f *testing.F) {
	for _, c := range argminCases([]int{8, 9, 17, 64}, []int{1, 6, 257}) {
		f.Add(toBytes(c.q), toBytes(c.vecs))
	}
	f.Fuzz(func(t *testing.T, qb, vb []byte) {
		q, vecs := kerneltest.FromBytes(qb), kerneltest.FromBytes(vb)
		if len(q) == 0 {
			return
		}
		kerneltest.CheckRows(t, q, vecs, min(len(vecs)/len(q), 600))
	})
}

// FuzzArgminBatchParity is FuzzArgminParity for a batch: the seed corpus
// is the adversarial table with the planted query in a tile beside one
// of its rows (distance 0) and its negation, and the fuzzer resizes the
// batch, the rows and the width and perturbs every float — and
// ArgminBatch under every implementation must return, for every query
// at every slot position, the exhaustive exact scan's index.
func FuzzArgminBatchParity(f *testing.F) {
	for _, c := range argminCases([]int{8, 9, 17, 64}, []int{1, 6, 257}) {
		dim := len(c.q)
		qs := append(append([]float32{}, c.vecs[:dim]...), c.q...)
		for _, x := range c.q {
			qs = append(qs, -x)
		}
		f.Add(toBytes(qs), toBytes(c.vecs), uint8(dim))
	}
	f.Fuzz(func(t *testing.T, qb, vb []byte, width uint8) {
		dim := max(1, int(width))
		qs, vecs := kerneltest.FromBytes(qb), kerneltest.FromBytes(vb)
		nq := min(len(qs)/dim, 2*kernel.ArgminTile+1)
		if nq == 0 {
			return
		}
		kerneltest.CheckArgminBatch(t, qs[:nq*dim], vecs, dim, min(len(vecs)/dim, 600))
	})
}

// FuzzPlanarParity is FuzzArgminBatchParity for the planar entry
// points: the seed corpus is the same adversarial table at the widths of
// a PQ codebook (below kernel.BlockDim) and at the wide widths of a
// coarse quantizer — exact ties planted in different lanes and vector
// steps, one-ulp neighbours, a cloud 1e3 from the origin, re-seeded
// duplicates, NaN and ±Inf coordinates, a NaN in every row (⇒ 0) — with
// the planted query in a batch beside a row of the table and its
// negation, and ArgminPlanarBatch over the TRANSPOSED table (and, below
// BlockDim, DistancePlanar and ArgminPlanar) must return, under every
// implementation, the reference's bits and, for every query at every
// slot position, the exhaustive exact scan's index, for row counts that
// are not multiples of any lane count or step too.
func FuzzPlanarParity(f *testing.F) {
	add := func(dims, ns []int) {
		for _, c := range argminCases(dims, ns) {
			dim := len(c.q)
			qs := append(append([]float32{}, c.q...), c.vecs[:dim]...)
			for _, x := range c.q {
				qs = append(qs, -x)
			}
			f.Add(toBytes(qs), toBytes(c.vecs), uint8(dim-1))
		}
	}
	add([]int{1, 2, 4, 7}, []int{1, 6, 33, 257})
	add([]int{8, 9, 17, 64}, []int{1, 33, 257})
	f.Fuzz(func(t *testing.T, qb, vb []byte, width uint8) {
		dim := 1 + int(width)
		qs, vecs := kerneltest.FromBytes(qb), kerneltest.FromBytes(vb)
		nq := min(len(qs)/dim, 2*kernel.ArgminTile+1)
		if nq == 0 {
			return
		}
		n := min(len(vecs)/dim, 600)
		if dim < kernel.BlockDim {
			kerneltest.CheckPlanar(t, qs[:dim], vecs, n)
		}
		kerneltest.CheckArgminPlanarBatch(t, qs[:nq*dim], vecs, dim, n)
	})
}

// FuzzADCParity drives the ADC table scan with fuzz-chosen shapes — the
// subquantizer count m and the row count straddle the 8-row block
// boundary — over lookup tables populated from raw bytes, so NaN
// payloads, infinities, and subnormals land in table cells, and fails
// on any bitwise divergence between a registered implementation and the
// portable reference.
func FuzzADCParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, byte(1), byte(3))
	f.Add([]byte{0x7f, 0xc0, 0, 0, 0xff, 0x80, 0, 0}, byte(4), byte(9))
	f.Fuzz(func(t *testing.T, data []byte, mb, nb byte) {
		m := 1 + int(mb)%8
		rows := 1 + int(nb)%300
		vals := kerneltest.FromBytes(data)
		if len(vals) == 0 {
			vals = []float32{0}
		}
		table := make([]float32, m*kernel.ADCKs)
		for i := range table {
			table[i] = vals[i%len(vals)]
		}
		codes := make([]byte, rows*m)
		if len(data) > 0 {
			for i := range codes {
				codes[i] = data[i%len(data)]
			}
		}
		kerneltest.CheckADC(t, table, codes, m)
	})
}
