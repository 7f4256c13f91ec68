// Package kerneltest provides the differential-testing helpers that
// cross-check every registered distance-kernel implementation against
// the portable reference on adversarial inputs: dimensions that are not
// multiples of the vector width, length-0/1 vectors, NaN/Inf/subnormal
// values, and slices whose base pointers are not vector-aligned. The
// kernel package's own property tests and the native Go fuzz targets
// (FuzzDistanceParity, FuzzDistanceBatchParity, FuzzRowsParity,
// FuzzArgminParity, FuzzArgminBatchParity, FuzzPlanarParity,
// FuzzADCParity) both build on it.
package kerneltest

import (
	"encoding/binary"
	"math"
	"testing"

	"caltrain/internal/kernel"
)

// Dims are the adversarial vector lengths every sweep covers: zero, the
// scalar tail alone (< 8), exact multiples of the 8-wide block, one
// element either side of each boundary, and a couple of realistic
// embedding sizes.
func Dims() []int {
	return []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 1000}
}

// Specials are adversarial float32 values sprinkled into test vectors:
// quiet/signalling NaN payloads, both infinities, extreme magnitudes,
// subnormals, and signed zero.
func Specials() []float32 {
	return []float32{
		float32(math.NaN()),
		math.Float32frombits(0x7f800001), // signalling NaN
		math.Float32frombits(0x7fc00123), // quiet NaN, nonzero payload
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
		math.MaxFloat32,
		-math.MaxFloat32,
		math.SmallestNonzeroFloat32,      // subnormal
		-math.SmallestNonzeroFloat32,     // negative subnormal
		math.Float32frombits(0x00400000), // mid-range subnormal
		0,
		float32(math.Copysign(0, -1)), // negative zero
	}
}

// FromBytes reinterprets b as little-endian float32s, dropping any
// ragged tail — how the fuzz targets turn raw corpus bytes into
// vectors, so NaN payloads, infinities, and subnormals arise naturally
// from the byte space rather than from a hand-picked list.
func FromBytes(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// Pair derives two equal-length query/vector slices from raw fuzz
// bytes. off (mod 4) shifts both slices off the start of a shared
// backing array, so their base pointers land at 4-byte — not 16- or
// 32-byte — alignments and the assembly's unaligned loads are
// exercised.
func Pair(qb, vb []byte, off uint8) (q, v []float32) {
	shift := int(off) % 4
	qf := FromBytes(qb)
	vf := FromBytes(vb)
	n := min(len(qf), len(vf))
	if shift > n {
		shift = n
	}
	return qf[shift:n], vf[shift:n]
}

// CheckPair fails t unless every registered implementation returns the
// reference's exact float64 bits for (q, v) and for (v, q). NaN results
// are canonicalized by the kernel contract, so exact equality holds for
// every input — NaN payloads, infinities, and subnormals included.
func CheckPair(t testing.TB, q, v []float32) {
	t.Helper()
	checkOrder(t, q, v)
	checkOrder(t, v, q)
}

func checkOrder(t testing.TB, q, v []float32) {
	t.Helper()
	want := kernel.SqDistRef(q, v)
	for _, im := range kernel.Impls() {
		got := im.SqDist(q, v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("impl %q: SqDist = %v (%#016x), reference %v (%#016x)\nq = %v\nv = %v",
				im.Name, got, math.Float64bits(got), want, math.Float64bits(want), q, v)
		}
	}
	if got := kernel.SqDist(q, v); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("dispatched SqDist (%s) = %v (%#016x), reference %v (%#016x)",
			kernel.Active(), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// CheckRows fails t unless every registered implementation's rows
// kernel scores the n rows of vecs against q (dim = len(q)) with the
// reference's exact float64 bits, writes nothing past out[n-1], the
// dispatched DistanceRows agrees with it, and ArgminRows under every
// implementation returns the strict-<, lowest-index-wins argmin of the
// reference distances. It is the differential check of the
// one-dispatch-per-block path and of the screened argmin at widths from
// 8; below 8 the same table is also held to CheckPlanar.
func CheckRows(t testing.TB, q, vecs []float32, n int) {
	t.Helper()
	dim := len(q)
	want := make([]float64, n)
	wantBest, bestD := 0, math.Inf(1)
	for i := range want {
		want[i] = kernel.SqDistRef(q, vecs[i*dim:(i+1)*dim])
		if want[i] < bestD {
			wantBest, bestD = i, want[i]
		}
	}
	const guard = -12345.5
	got := make([]float64, n+1)
	check := func(name string) {
		for i, w := range want {
			if math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("%s: Rows[%d] = %v (%#016x), reference %v (%#016x) (dim=%d, rows=%d)\nq = %v\nrow = %v",
					name, i, got[i], math.Float64bits(got[i]), w, math.Float64bits(w), dim, n, q, vecs[i*dim:(i+1)*dim])
			}
		}
		if got[n] != guard {
			t.Fatalf("%s: Rows wrote past its %d outputs (dim=%d)", name, n, dim)
		}
	}
	reset := func() {
		for i := range got {
			got[i] = guard
		}
	}
	for _, im := range kernel.Impls() {
		reset()
		im.Rows(q, vecs, dim, got[:n])
		check("impl " + im.Name)
	}
	reset()
	kernel.DistanceRows(q, vecs, dim, got[:n])
	check("dispatched (" + kernel.Active() + ")")
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatal(err)
		}
		best := kernel.ArgminRows(q, vecs, dim, n)
		restore()
		if best != wantBest {
			t.Fatalf("ArgminRows (%s) = %d, reference argmin %d (dim=%d, rows=%d)", im.Name, best, wantBest, dim, n)
		}
	}
	if dim < kernel.BlockDim {
		CheckPlanar(t, q, vecs, n)
	}
}

// CheckArgminBatch fails t unless, under every registered
// implementation, ArgminBatch over the n rows of vecs returns for every
// query of qs (len(qs)/dim of them) the strict-<, lowest-index-wins
// argmin of the reference distances — for the whole batch (a ragged
// last tile when its size is not a multiple of kernel.ArgminTile) and
// for every window of 1…ArgminTile+1 consecutive queries, so each query
// is screened at every slot position of a tile and beside every
// neighbour.
func CheckArgminBatch(t testing.TB, qs, vecs []float32, dim, n int) {
	t.Helper()
	if dim <= 0 {
		t.Fatalf("CheckArgminBatch needs dim ≥ 1, got %d", dim)
	}
	checkBatch(t, "ArgminBatch", qs, vecs, dim, n, func(qs []float32, out []int32) {
		kernel.ArgminBatch(qs, vecs, dim, n, out)
	})
}

// CheckArgminPlanarBatch is CheckArgminBatch for ArgminPlanarBatch over
// the n-row table vecs TRANSPOSED to dimension-major.
func CheckArgminPlanarBatch(t testing.TB, qs, vecs []float32, dim, n int) {
	t.Helper()
	if dim <= 0 {
		t.Fatalf("CheckArgminPlanarBatch needs dim ≥ 1, got %d", dim)
	}
	planes := transpose(vecs, dim, n)
	checkBatch(t, "ArgminPlanarBatch", qs, vecs, dim, n, func(qs []float32, out []int32) {
		kernel.ArgminPlanarBatch(qs, planes, dim, n, out)
	})
}

// checkBatch holds argmin, a batched argmin entry point over the n rows
// of vecs, to the reference argmin of every query of qs under every
// registered implementation: the whole batch and every window of
// 1…ArgminTile+1 consecutive queries, with a guard past the outputs.
func checkBatch(t testing.TB, name string, qs, vecs []float32, dim, n int, argmin func(qs []float32, out []int32)) {
	t.Helper()
	nq := len(qs) / dim
	qs = qs[:nq*dim]
	want := make([]int32, nq)
	for i := range want {
		q, bestD := qs[i*dim:(i+1)*dim], math.Inf(1)
		for r := 0; r < n; r++ {
			if d := kernel.SqDistRef(q, vecs[r*dim:(r+1)*dim]); d < bestD {
				want[i], bestD = int32(r), d
			}
		}
	}
	got := make([]int32, nq+1)
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatal(err)
		}
		check := func(lo, hi int) {
			t.Helper()
			const guard = -7
			got[hi-lo] = guard
			argmin(qs[lo*dim:hi*dim], got[:hi-lo])
			for i := lo; i < hi; i++ {
				if got[i-lo] != want[i] {
					restore()
					t.Fatalf("%s (%s) of queries [%d,%d): query %d (slot %d) = %d, reference argmin %d (dim=%d, n=%d)\nq = %v",
						name, im.Name, lo, hi, i, i-lo, got[i-lo], want[i], dim, n, qs[i*dim:(i+1)*dim])
				}
			}
			if got[hi-lo] != guard {
				restore()
				t.Fatalf("%s (%s) wrote past its %d outputs", name, im.Name, hi-lo)
			}
		}
		check(0, nq)
		for k := 1; k <= min(nq, kernel.ArgminTile+1); k++ {
			for lo := 0; lo+k <= nq; lo++ {
				check(lo, lo+k)
			}
		}
		restore()
	}
}

// transpose returns the n×dim row-major table vecs dimension-major:
// planes[j*n+i] = vecs[i*dim+j].
func transpose(vecs []float32, dim, n int) []float32 {
	planes := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		for j, x := range vecs[i*dim : (i+1)*dim] {
			planes[j*n+i] = x
		}
	}
	return planes
}

// CheckPlanar fails t unless, under every registered implementation,
// DistancePlanar over the n-row table vecs TRANSPOSED to dimension-major
// returns the reference's exact float64 bits for every row (what
// DistanceRows returns for vecs itself), writes nothing past out[n-1],
// and ArgminPlanar returns the strict-<, lowest-index-wins argmin of the
// reference distances; and, for len(q) ≥ 1, that ArgminPlanarBatch
// does too with q at every slot of a tile and past it, beside rows of
// the table (distance 0, ties) and q's negation
// (CheckArgminPlanarBatch). len(q) must be below kernel.BlockDim; n
// need not be a multiple of any lane count.
func CheckPlanar(t testing.TB, q, vecs []float32, n int) {
	t.Helper()
	dim := len(q)
	planes := transpose(vecs, dim, n)
	want := make([]float64, n)
	wantBest, bestD := 0, math.Inf(1)
	for i := range want {
		want[i] = kernel.SqDistRef(q, vecs[i*dim:(i+1)*dim])
		if want[i] < bestD {
			wantBest, bestD = i, want[i]
		}
	}
	const guard = -12345.5
	got := make([]float64, n+1)
	for _, im := range kernel.Impls() {
		restore, err := kernel.SetActive(im.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			got[i] = guard
		}
		kernel.DistancePlanar(q, planes, got[:n])
		best := kernel.ArgminPlanar(q, planes, n)
		restore()
		for i, w := range want {
			if math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("DistancePlanar (%s)[%d] = %v (%#016x), reference %v (%#016x) (dim=%d, n=%d)\nq = %v\nrow = %v",
					im.Name, i, got[i], math.Float64bits(got[i]), w, math.Float64bits(w), dim, n, q, vecs[i*dim:(i+1)*dim])
			}
		}
		if got[n] != guard {
			t.Fatalf("DistancePlanar (%s) wrote past its %d outputs (dim=%d)", im.Name, n, dim)
		}
		if best != wantBest {
			t.Fatalf("ArgminPlanar (%s) = %d, reference argmin %d (dim=%d, n=%d)\nq = %v\nrows = %v", im.Name, best, wantBest, dim, n, q, vecs[:n*dim])
		}
	}
	if dim == 0 {
		return
	}
	qs := make([]float32, 0, (kernel.ArgminTile+1)*dim)
	for s := 0; s < kernel.ArgminTile; s++ {
		if s%2 == 0 && n > 0 {
			r := (s * 7) % n
			qs = append(qs, vecs[r*dim:(r+1)*dim]...)
		} else {
			for _, x := range q {
				qs = append(qs, -x)
			}
		}
	}
	qs = append(qs, q...)
	CheckArgminPlanarBatch(t, qs, vecs, dim, n)
}

// CheckADC fails t unless every registered implementation's ADC
// table scan returns the reference's exact float64 bits over (table,
// codes): same fixed reduction tree, same canonical NaN, any m. table
// must be m×ADCKs floats; trailing code bytes short of a full m-byte
// row are dropped.
func CheckADC(t testing.TB, table []float32, codes []byte, m int) {
	t.Helper()
	if m <= 0 {
		t.Fatalf("CheckADC needs m ≥ 1, got %d", m)
	}
	rows := len(codes) / m
	codes = codes[:rows*m]
	want := make([]float64, rows)
	kernel.ADCScanRef(table, codes, m, want)
	got := make([]float64, rows)
	check := func(name string) {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: ADCScan[%d] = %v (%#016x), reference %v (%#016x) (m=%d, rows=%d)",
					name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), m, rows)
			}
		}
	}
	for _, im := range kernel.Impls() {
		for i := range got {
			got[i] = -1
		}
		im.ADCScan(table, codes, m, got)
		check("impl " + im.Name)
	}
	for i := range got {
		got[i] = -1
	}
	kernel.ADCScan(table, codes, m, got)
	check("dispatched (" + kernel.Active() + ")")
}

// CheckBatch fails t unless the batched entry points (DistanceBatch,
// DistanceRows, DistanceGather) agree cell-for-cell, in exact bits,
// with pairwise reference calls over the same queries and vectors.
// queries and vecs are row-major dim-length rows.
func CheckBatch(t testing.TB, queries, vecs []float32, dim int) {
	t.Helper()
	if dim <= 0 {
		t.Fatalf("CheckBatch needs dim ≥ 1, got %d", dim)
	}
	nq, n := len(queries)/dim, len(vecs)/dim
	queries, vecs = queries[:nq*dim], vecs[:n*dim]
	out := make([]float64, nq*n)
	kernel.DistanceBatch(queries, vecs, dim, out)
	rows := make([]float64, n)
	gathered := make([]float64, n)
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(n - 1 - i) // reversed gather order
	}
	for qi := 0; qi < nq; qi++ {
		q := queries[qi*dim : (qi+1)*dim]
		kernel.DistanceRows(q, vecs, dim, rows)
		kernel.DistanceGather(q, vecs, dim, pos, gathered)
		for i := 0; i < n; i++ {
			want := kernel.SqDistRef(q, vecs[i*dim:(i+1)*dim])
			if got := out[qi*n+i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DistanceBatch[%d,%d] = %v, reference %v (dim=%d, nq=%d, n=%d)", qi, i, got, want, dim, nq, n)
			}
			if got := rows[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DistanceRows[%d,%d] = %v, reference %v (dim=%d)", qi, i, got, want, dim)
			}
			if got := gathered[n-1-i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DistanceGather[%d,pos %d] = %v, reference %v (dim=%d)", qi, i, got, want, dim)
			}
		}
	}
}
