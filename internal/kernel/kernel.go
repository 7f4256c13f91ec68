// Package kernel is the batched squared-L2 distance subsystem behind
// every hot path in the serving tier: the Flat exhaustive scan, both IVF
// stages (centroid ranking and inverted-list scans), the k-means and
// product-quantization trainers, the ADC table build of every IVFPQ
// query, the exact DB reference scan, and Fingerprint.L2Distance all
// bottom out here.
//
// Three implementations exist:
//
//   - generic: a portable pure-Go blocked scan (always present, and the
//     only one under `-tags noasm` or on architectures without an
//     assembly path).
//   - avx2: hand-written Go assembly (kernel_amd64.s) selected by
//     runtime CPU-feature dispatch on amd64 when the host supports
//     AVX2+OSXSAVE.
//   - neon: hand-written Go assembly (kernel_arm64.s) registered
//     unconditionally on arm64 — ASIMD is baseline ARMv8-A, so no
//     feature probe is needed.
//
// Each implementation fills three slots of Impl: the pair kernel
// (SqDist), the rows kernel (Rows: one query against a contiguous block
// of rows, ONE dispatch per block) and the ADC table scan (adc.go). The
// assembly implementations also carry unexported routines: the planar
// routine behind DistancePlanar and the widening add behind Accumulate
// (see "Planar tables" and "The Lloyd update" below), and the float32
// screens of the argmins — one over row-major rows (ArgminRows,
// ArgminBatch), one over planar tables (ArgminPlanar, ArgminPlanarBatch)
// with its norms pass — and the selection stage they share (see
// "Screened argmin").
//
// Bit-stability contract. Every implementation MUST produce bitwise
// identical float64 results for identical inputs, so indexes built,
// saved, and served on machines with different vector units agree
// exactly, and so the differential harness (kerneltest, the Fuzz*Parity
// targets) can assert equality rather than tolerances. To make that
// possible the summation order is part of the kernel's specification,
// not an implementation detail:
//
//	nblk = len &^ 7
//	p[k] = Σ_i t[8i+k]  for 8i+k < nblk, i ascending   (8 partial sums)
//	s    = ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7))       (fixed tree)
//	s   += t[j]  for j = nblk..len-1, j ascending       (scalar tail)
//
// where each term t[j] = d*d with d = float64(q[j]) - float64(v[j]),
// every operation IEEE-754 double rounded (no FMA). The AVX2 path
// realises exactly this order: two 4-lane double accumulators fed by
// VCVTPS2PD/VSUBPD/VMULPD/VADDPD, reduced with the fixed tree above,
// then a scalar tail.
//
// Planar tables. For len < 8 (BlockDim) the blocked prefix is empty, the
// tree sums eight +0s, and the order degenerates to
//
//	s = (((t0 + t1) + t2) + …) + t[len-1]
//
// (+0 + t0 is t0 exactly: a term is never -0). That is the shape of a
// product-quantization subvector (dim/M floats, 4 at dim 64 and M 16),
// and a row that narrow gives a vector unit nothing to work across. So
// centroid tables are also kept PLANAR (planar.go): dim planes of n
// floats, plane j holding coordinate j of every centroid, so coordinate
// j of neighbouring centroids is one contiguous load and a vector lane
// holds one CENTROID rather than one coordinate. Two kinds of table are
// planar. A PQ codebook narrower than 8 is planar where it is resident
// (after a subquantizer trains, when a CTIX file is loaded); DistancePlanar
// (the ADC table build: one centroid per double lane, 4 per step on
// AVX2, 2 on NEON, terms added in ascending j) and ArgminPlanar read it.
// And every k-means assignment pass, at EVERY width, reads a transient
// planar copy of its row-major centroid table through ArgminPlanarBatch
// (internal/index: rewritten once per Lloyd round, and once for IVF's
// full pass): scoring a tile of queries against a plane is a broadcast
// and one fused multiply-add per query per lane of centroids, with no
// horizontal reduction anywhere, where a row-major row needs one per row
// and query (see "Screened argmin"). The CTIX bytes stay row-major. None
// of this can change a bit of any result: the layout decides which
// address a float is read from, and the value of centroid i is still the
// sum above over the same floats in the same order (planarAt reads it
// plane by plane) — which is also what the rows kernel returns for
// narrow rows of row-major data (a Flat index over fingerprints narrower
// than 8), where every implementation runs the portable loop: the query
// widened once and the sum run straight down each row.
//
// The Lloyd update. The other half of a k-means round adds each sample
// point, widened to float64, into its cluster's sums, in sample order
// whichever core assigned it. Accumulate is that step under the same kind
// of contract: bit for bit the scalar loop sums[j] += float64(v[j]).
// Elements are independent and widening is exact, so a vector path
// (VCVTPS2PD + VADDPD, FCVTL + FADD) may take any number at once; the one
// choice left to it is which payload survives when both operands are NaN,
// and it makes the choice the compiled loop makes on that architecture
// (TestAccumulateParity holds it to the loop, NaN rows included).
//
// A result that is NaN is canonicalized to the math.NaN() bit pattern.
// Which input payload would otherwise survive the sum depends on x86
// ADDSD operand order, which the Go compiler is free to commute between
// builds — canonicalizing is what makes the contract total (bitwise
// equality for ALL inputs, and SqDist(q,v) == SqDist(v,q) exactly).
//
// The batched entry points (DistanceRows, DistanceGather,
// DistanceBatch, ArgminRows, ArgminBatch, ArgminPlanarBatch) amortize
// dispatch and memory traffic: DistanceRows and ArgminRows hand a whole
// block of rows to one kernel call, DistanceBatch sweeps a block of
// vectors sized to stay cache-resident across a whole query batch, so a
// batch of B queries costs one pass over the data instead of B, and
// ArgminBatch and ArgminPlanarBatch screen a tile of queries per load of
// each row.
//
// Screened argmin. ArgminPlanarBatch — the nearest-centroid assignment of
// every k-means pass (IVF's coarse quantizer, every PQ subquantizer) and
// of PQ encoding, the loop set-up consists of — ArgminRows (an IVF or
// IVFPQ Append), ArgminBatch (PQ encoding at 8 floats and wider) and
// ArgminPlanar are specified by their RESULT: the index an ascending
// strict-< scan of the exact kernel distances returns. Under an assembly
// implementation they get there without running the exact kernel on most
// rows. One routine per architecture and layout, screenAsm (row-major,
// widths of 8 and up) and planarScreenAsm (planar, any width), scores a
// TILE of up to four queries against a block of at most 256 rows in
// float32 DOT FORM,
//
//	s = ‖v‖² − 2·q·v  =  T − ‖q‖²   (T the real squared distance)
//
// dropping the per-query ‖q‖². Row-major, ‖v‖² is summed in-kernel beside
// the dots: each 8 coordinates of a row are loaded once for the tile and
// cost one fused multiply-add per query plus one for the norm, and each
// row and query one horizontal reduction. Planar, a plane of centroids
// is loaded once for the tile and costs one fused multiply-add per query
// and lane of centroids — a register tile of 4 queries × 24 centroids
// on AVX2 (twelve independent FMA chains: the eight that two FMA ports of
// latency four need, and room; eight ran at ~80 % of the FMA bound, twelve
// at ~92 %), 4 × 16 on NEON — and the centroids' ‖c‖² are read from a
// norms pass (planarNormsAsm) run once per block of a call rather than
// once per tile. A batch of one sums v·(v − 2·q) instead (row-major, and
// planar on AVX2: a subtraction and an FMA per lane, the port mix of one
// query), or ‖c‖² beside its dot (planar on NEON). Then, per query, from the
// block's smallest value m and the routine's own ‖q‖² (qq), the shared
// selection stage, screenSelectAsm, marks every row with s ≤ L a
// candidate,
//
//	L = a·m + b·qq + c₀   (screenBound: a = 1 + 4c(1+4c), b ≈ 20c, c₀ ≈ η)
//	c = γ_K + 2u,  γ_K = Ku/(1−Ku),  u = 2⁻²⁴,  η = (dim+8)·2⁻¹⁴⁷
//	K = dim/8 + 12 (row-major),  K = dim + 4 (planar)
//
// (L evaluated in float64 and rounded UP to float32), marked in a bitmap,
// and only the candidates — one of a bench centroid table, typically, and
// the one candidate of a single block is the answer outright — are
// scored by the exact distance (the pair kernel, or the planar sum of
// that one centroid) and compared ascending with a strict <.
// The screening values are NOT part of the bit-stability contract (the
// two architectures sum in different orders); the returned index is,
// because the candidate set provably contains the exhaustive winner:
//
//   - One value. Every term of s (v_j² and −2·q_j·v_j) passes through at
//     most K float32 roundings — ⌈dim/8⌉ fused steps per lane, the lane's
//     n − 2·d (or the subtraction v − 2·q), three reduction levels, and on
//     NEON up to eight more for the scalar tail. A planar term is one
//     coordinate of one centroid, at most dim + 1 deep: dim fused steps
//     down the planes in one float lane (the FMA chain of a dot, of ‖c‖²
//     beside it, or of c·(c − 2·q) for a batch of one after its
//     subtraction) and the combining ‖c‖² − 2·dot; the norms pass splits
//     the planes between two chains, ⌈dim/2⌉ + 1 deep with their sum; qq
//     is ⌈dim/8⌉ + 3 deep on AVX2 (screenAsm's sum) and on NEON at most
//     ⌈dim/8⌉ + 10 from dim 8 on (three reduction levels and seven fused
//     tail steps) and a chain of dim FMADDs below it, so K = dim + 4
//     covers them all. Either way, for a row whose
//     arithmetic never overflows, |ŝ − s| ≤ c·(‖q‖ + ‖v‖)² + η/2: the
//     terms' magnitudes sum to at most ‖v‖² + 2‖q‖‖v‖ ≤ (‖q‖ + ‖v‖)², the
//     extra u covers the rounding of the subtraction, and η/2 the absolute
//     error of a product rounding in the subnormal range (additions are
//     exact there; the Go runtime leaves flush-to-zero off).
//   - Why it scales with (‖q‖ + ‖v‖)². The dot form cancels ‖v‖² against
//     2·q·v, so its error is relative to the norms, not to the distance:
//     tight for fingerprints near the origin (one candidate of 158 at unit
//     norm, one of 256 codebook centroids), every row a candidate for a
//     cloud 1e3 from it — slower, never wrong
//     (TestScreenBoundWidensOffOrigin logs both counts).
//   - No stored norms. Only two rows matter: m's and the exhaustive
//     winner i's — so each screen computes ‖v‖² where it runs (beside the
//     dots, or the planar norms pass into a block of call scratch), and
//     neither the table layout nor the CTIX bytes change, nor does
//     anything stay resident. For any row
//     ‖v‖ ≤ ‖q‖ + √T, so (‖q‖ + ‖v‖)² ≤ 8‖q‖² + 2T;
//     applied to m, T_m ≤ m + ‖q‖² + c·(8‖q‖² + 2T_m) + η/2, a bound linear
//     in m; and the float64 exact values D (|D − T| ≤ γ₆₄·T) give
//     D_i ≤ D_m, hence T_i ≤ T_m·(1 + 3γ₆₄). Chaining them,
//     ŝ_i ≤ m + c·(16‖q‖² + 4T_m) + η, with ‖q‖² ≤ qq·(1 + 2c) + η from qq's
//     own error and the γ₆₄ terms inside the u/2 of slack c keeps: that
//     is L. Row i passes.
//   - Among candidates the ascending strict-< scan of exact distances
//     picks the lowest index at the smallest D, which is i, and blocks
//     combine by the same rule.
//
// The bound needs finite arithmetic. A query whose qq is above 1e30 or
// NaN, and a block whose m is (m is also NaN when a NaN row hides the
// minimum), get L = +Inf: every row a candidate — the exhaustive scan,
// for that query alone; its tile's other queries keep their limits. A
// row whose arithmetic overflows float32 screens as +Inf (no −Inf can
// arise while ‖q‖² ≤ 1e30) or NaN: never a candidate under a finite L,
// rightly, since its T is past 3e38 while T_m ≤ 2e30; always one if NaN.
// Row-major rows narrower than 8 (the tables hot at those widths are
// planar), widths above screenMaxDim, blocks of fewer than four rows (32
// planar centroids), everything under the portable implementation, and
// an AVX2 host without FMA3 (screenOK: dispatch_amd64.go probes
// CPUID.1:ECX bit 12) keep the exact scan; so does DistancePlanar, which
// returns distances, not an index. kerneltest.CheckRows,
// CheckArgminBatch, CheckPlanar and CheckArgminPlanarBatch hold all four
// entry points to the reference argmin under every implementation, at
// every slot of a tile; TestArgminAdversarial,
// TestArgminBatchAdversarial, TestArgminPlanarAdversarial,
// TestArgminPlanarBatchAdversarial (the wide planar widths) and the
// FuzzArgminParity, FuzzArgminBatchParity and FuzzPlanarParity targets
// aim them at exact ties (re-seeded duplicate centroids too), one-ulp
// neighbours, rows whose distances agree to the last bits (also 100 and
// 1e3 from the origin, where the dot form cancels), underflowing,
// accumulating-subnormal and overflowing squares and non-finite
// coordinates; TestPlanarScreenValues holds planarScreenAsm's values,
// minima and ‖q‖², and planarNormsAsm's norms, to the bound above.
package kernel

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Impl is one registered distance implementation.
type Impl struct {
	// Name identifies the implementation: "generic", "avx2", or "neon".
	Name string
	// SqDist is the pair kernel: squared L2 distance between two
	// equal-length float32 vectors, computed per the package's
	// specified summation order.
	SqDist func(q, v []float32) float64
	// Rows is the rows kernel: out[i] = SqDist(q, vecs[i*dim:(i+1)*dim])
	// for every i in [0, len(out)), bit-for-bit, with the row loop
	// inside the implementation. len(q) == dim and len(vecs) ≥
	// len(out)*dim are validated by the package-level entry points
	// before dispatch; the assembly reads exactly len(out)*dim floats.
	Rows func(q, vecs []float32, dim int, out []float64)
	// ADCScan is the product-quantization table-scan kernel (adc.go):
	// it scores rows of uint8 codes against one query's ADC lookup
	// table, per the specified summation order. Arguments are validated
	// by the package-level ADCScan before dispatch.
	ADCScan func(table []float32, codes []byte, m int, out []float64)
}

// rows runs the rows kernel of im, a registry entry, through a static
// call: the portable reference is impls[0], anything else is the
// build's assembly implementation. Dispatching through the Rows func
// value instead would make escape analysis move a caller's
// stack-resident out block (ArgminRows') to the heap: arguments of an
// indirect call escape.
func (im *Impl) rows(q, vecs []float32, dim int, out []float64) {
	if im == &impls[0] {
		rowsGeneric(q, vecs, dim, out)
		return
	}
	rowsVector(q, vecs, dim, out)
}

// impls is the registry: the portable reference first, hardware paths
// appended by per-arch init (dispatch_amd64.go).
var impls = []Impl{{Name: "generic", SqDist: sqDistGeneric, Rows: rowsGeneric, ADCScan: adcScanGeneric}}

// active is the implementation SqDist and the batched entry points
// dispatch to. It is atomic so benchmarks can swap implementations while
// concurrent scans hold their own snapshot.
var active atomic.Pointer[Impl]

// init registers the architecture path (a no-op on builds without one)
// and dispatches to the best implementation available — the hardware
// path when registered, the portable reference otherwise.
func init() {
	registerArch()
	active.Store(&impls[len(impls)-1])
}

// Impls returns the registered implementations, the portable reference
// ("generic") first. On amd64 with AVX2 it also contains "avx2", on
// arm64 "neon" (both excluded under `-tags noasm`). The differential
// harness iterates this to cross-check every implementation against
// the reference.
func Impls() []Impl {
	out := make([]Impl, len(impls))
	copy(out, impls)
	return out
}

// Active returns the name of the implementation currently dispatched to.
func Active() string { return active.Load().Name }

// SetActive selects the dispatched implementation by name — the hook
// benchmarks and tests use to force the scalar reference on hardware
// that would auto-select AVX2 (build with `-tags noasm` to exclude the
// assembly entirely). It returns a restore function re-selecting the
// previous implementation.
func SetActive(name string) (restore func(), err error) {
	prev := active.Load()
	for i := range impls {
		if impls[i].Name == name {
			active.Store(&impls[i])
			return func() { active.Store(prev) }, nil
		}
	}
	return nil, fmt.Errorf("kernel: no implementation %q (have %v)", name, implNames())
}

func implNames() []string {
	names := make([]string, len(impls))
	for i, im := range impls {
		names[i] = im.Name
	}
	return names
}

// SqDist returns the squared L2 distance between q and v via the active
// implementation. It panics if the lengths differ; hot paths validate
// dimensions once per request, not per pair.
func SqDist(q, v []float32) float64 {
	if len(q) != len(v) {
		panic(fmt.Sprintf("kernel: SqDist length mismatch %d vs %d", len(q), len(v)))
	}
	return active.Load().SqDist(q, v)
}

// SqDistRef is the portable blocked reference implementation, exported
// under a fixed name so differential tests compare hardware paths
// against it regardless of which implementation is active.
func SqDistRef(q, v []float32) float64 {
	if len(q) != len(v) {
		panic(fmt.Sprintf("kernel: SqDistRef length mismatch %d vs %d", len(q), len(v)))
	}
	return sqDistGeneric(q, v)
}

// sqDistGeneric realises the specified summation order in portable Go.
// The explicit float64 conversion around each product forbids the
// compiler from fusing it into the following add (it would on arm64),
// so each operation rounds exactly as the assembly's packed equivalents.
func sqDistGeneric(q, v []float32) float64 {
	n := len(q) &^ 7
	var p [8]float64
	for j := 0; j < n; j += 8 {
		qq, vv := q[j:j+8], v[j:j+8]
		for k := 0; k < 8; k++ {
			d := float64(qq[k]) - float64(vv[k])
			p[k] += float64(d * d)
		}
	}
	s := ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]))
	for j := n; j < len(q); j++ {
		d := float64(q[j]) - float64(v[j])
		s += float64(d * d)
	}
	if s != s {
		return math.NaN() // canonical payload: see the contract above
	}
	return s
}

// rowsGeneric is the portable rows kernel. Widths of a whole block or
// more run the pair kernel row by row. The tail-only widths take the
// degenerate order of the package comment straight down each row: the
// query is widened once per call, and every `dim > j` test is
// loop-invariant, so a row costs its terms and nothing else. (The
// assembly implementations send their narrow rows here too.)
func rowsGeneric(q, vecs []float32, dim int, out []float64) {
	if dim >= BlockDim {
		for i := range out {
			out[i] = sqDistGeneric(q, vecs[i*dim:(i+1)*dim])
		}
		return
	}
	if dim == 0 {
		clear(out)
		return
	}
	var qd [7]float64
	for j, x := range q {
		qd[j] = float64(x)
	}
	for i := range out {
		v := vecs[i*dim : (i+1)*dim]
		d := qd[0] - float64(v[0])
		s := float64(d * d)
		if dim > 1 {
			d = qd[1] - float64(v[1])
			s += float64(d * d)
		}
		if dim > 2 {
			d = qd[2] - float64(v[2])
			s += float64(d * d)
		}
		if dim > 3 {
			d = qd[3] - float64(v[3])
			s += float64(d * d)
		}
		if dim > 4 {
			d = qd[4] - float64(v[4])
			s += float64(d * d)
		}
		if dim > 5 {
			d = qd[5] - float64(v[5])
			s += float64(d * d)
		}
		if dim > 6 {
			d = qd[6] - float64(v[6])
			s += float64(d * d)
		}
		if s != s {
			s = math.NaN() // canonical payload: see the contract above
		}
		out[i] = s
	}
}

// blockRows returns how many dim-length rows fit the cache block the
// batched sweeps tile over (~32 KiB, roomy for L1d alongside the query
// and scratch). Always at least 1.
func blockRows(dim int) int {
	const blockBytes = 32 << 10
	r := blockBytes / (4 * dim)
	if r < 1 {
		r = 1
	}
	return r
}

// checkRowsArgs validates one rows-kernel call before dispatch: the
// assembly keeps its row loop to itself and would read past a short
// vecs instead of failing a bounds check.
func checkRowsArgs(name string, q, vecs []float32, dim, rows int) {
	if len(q) != dim {
		panic(fmt.Sprintf("kernel: %s query has %d dims, want %d", name, len(q), dim))
	}
	if rows < 0 || len(vecs) < rows*dim {
		panic(fmt.Sprintf("kernel: %s %d vector floats for %d rows of %d", name, len(vecs), rows, dim))
	}
}

// DistanceRows computes out[i] = SqDist(q, vecs[i*dim:(i+1)*dim]) for
// every row i in [0, len(out)). vecs must hold at least len(out)*dim
// floats and len(q) must equal dim. This is the contiguous-scan building
// block of the Flat index, IVF centroid ranking and the ADC table build.
func DistanceRows(q, vecs []float32, dim int, out []float64) {
	checkRowsArgs("DistanceRows", q, vecs, dim, len(out))
	active.Load().rows(q, vecs, dim, out)
}

// Accumulate adds v, widened to float64, into sums element by element —
// the update step of k-means, run once per sample point in sample order.
// Its contract is bitwise: sums ends as the scalar loop
//
//	for j, x := range v { sums[j] += float64(x) }
//
// leaves it, element j one IEEE-754 double addition of float64(v[j]) and
// sums[j] (widening is exact, also for subnormals). Elements are
// independent, so the vector paths take several per instruction and
// keep that loop's bits; where both operands are NaN they keep the
// payload the loop's compiled addition keeps on that architecture: the
// widened v[j] on amd64, sums[j] on arm64. len(sums) must equal len(v).
func Accumulate(sums []float64, v []float32) {
	if len(sums) != len(v) {
		panic(fmt.Sprintf("kernel: Accumulate %d sums for %d values", len(sums), len(v)))
	}
	if active.Load() == &impls[0] {
		accumulateGeneric(sums, v)
		return
	}
	accumulateVector(sums, v)
}

// accumulateGeneric is Accumulate's portable reference: the loop its
// contract names.
func accumulateGeneric(sums []float64, v []float32) {
	for j, x := range v {
		sums[j] += float64(x)
	}
}

// argminBlock is how many rows an exhaustive argmin scores per kernel
// call: a whole PQ codebook (ADCKs rows) in one dispatch, on 2 KiB of
// stack for the exact distances. The screened argmin screens a block of
// that many rows at a time too, for up to ArgminTile queries at once.
const argminBlock = ADCKs

// The screened argmin applies where its proof does (see the package
// comment): an assembly implementation whose screening routine the host
// can run (screenOK, per architecture), at least one whole 8-float
// block per row, at least four rows per block, and a width that keeps
// the rounding depth K far below 2²⁴ (c ≤ 1/4, and the float64 error
// terms inside c's slack).
const (
	screenMinDim  = BlockDim
	screenMaxDim  = 1 << 16
	screenMinRows = 4
)

// screens reports whether im runs the screened argmin at width dim.
func screens(im *Impl, dim int) bool {
	return screenOK && im != &impls[0] && dim >= screenMinDim && dim <= screenMaxDim
}

// ArgminTile is how many queries of an ArgminBatch the assembly
// implementations screen together against each block of rows (one
// screenAsm call).
const ArgminTile = 4

// ArgminBatch writes into out[i] the index of the row of vecs[:n*dim]
// nearest query i of qs (len(out) queries of dim floats, concatenated):
// bit for bit what ArgminRows(qs[i*dim:(i+1)*dim], vecs, dim, n)
// returns. On the assembly implementations the queries are screened
// ArgminTile at a time, so each block of rows is read once per tile
// instead of once per query — the assignment pass of k-means hands a
// whole chunk of points to one call.
func ArgminBatch(qs, vecs []float32, dim, n int, out []int32) {
	if dim < 0 || len(qs) != len(out)*dim {
		panic(fmt.Sprintf("kernel: ArgminBatch %d query floats for %d queries of %d", len(qs), len(out), dim))
	}
	if n < 0 || len(vecs) < n*dim {
		panic(fmt.Sprintf("kernel: ArgminBatch %d vector floats for %d rows of %d", len(vecs), n, dim))
	}
	im := active.Load()
	if screens(im, dim) {
		var a [ArgminTile * argminBlock]float32
		argminScreened(qs, vecs, dim, n, out, a[:], false)
		return
	}
	for i := range out {
		out[i] = int32(ArgminRows(qs[i*dim:(i+1)*dim], vecs, dim, n))
	}
}

// ArgminRows returns the index of the row of vecs[:n*dim] nearest q by
// squared kernel distance — the assignment step of k-means and product
// quantization. The scan is ascending with a strict <, so ties go to
// the lowest index; a NaN distance never wins, and 0 is returned when no
// row is closer than +Inf (or n is 0). On the assembly implementations
// it is ArgminBatch's batch of one: most rows are ruled out by a float32
// screening pass and never reach the exact kernel, and the index
// returned is the exhaustive scan's for every input (package comment,
// "Screened argmin").
func ArgminRows(q, vecs []float32, dim, n int) int {
	checkRowsArgs("ArgminRows", q, vecs, dim, n)
	im := active.Load()
	if screens(im, dim) {
		return argminOne(q, vecs, dim, n, false)
	}
	// The exhaustive scan both argmins are specified by, kept inline: a
	// call level around its 2 KiB block cost the dim-4 path ~25 ns.
	var buf [argminBlock]float64
	best, bestD := 0, math.Inf(1)
	for r0 := 0; r0 < n; r0 += argminBlock {
		d2s := buf[:min(argminBlock, n-r0)]
		im.rows(q, vecs[r0*dim:], dim, d2s)
		for i, d := range d2s {
			if d < bestD {
				best, bestD = r0+i, d
			}
		}
	}
	return best
}

// argminOne is the screened argmin's batch of one (ArgminRows, and
// ArgminPlanar when planar is set). Its screening scratch lives in this
// frame: declared in ArgminRows, the address-taken 1 KiB block was
// zeroed on every call, exact path included (+5 % at dim 4).
//
//go:noinline
func argminOne(q, vecs []float32, dim, n int, planar bool) int {
	var a [argminBlock]float32
	var out [1]int32
	argminScreened(q, vecs, dim, n, out[:], a[:], planar)
	return int(out[0])
}

// DistanceGather computes out[i] = SqDist(q, vecs[pos[i]*dim:...]) —
// the inverted-list scan building block, where candidate rows are
// scattered bucket positions rather than a contiguous range. len(pos)
// must equal len(out).
func DistanceGather(q, vecs []float32, dim int, pos []int32, out []float64) {
	if len(q) != dim {
		panic(fmt.Sprintf("kernel: DistanceGather query has %d dims, want %d", len(q), dim))
	}
	if len(pos) != len(out) {
		panic(fmt.Sprintf("kernel: DistanceGather %d positions but %d outputs", len(pos), len(out)))
	}
	fn := active.Load().SqDist
	for i, p := range pos {
		out[i] = fn(q, vecs[int(p)*dim:(int(p)+1)*dim])
	}
}

// DistanceBatch computes the full nq×n distance matrix between a query
// batch and a vector set: out[qi*n + i] = SqDist(query qi, vector i).
// queries is nq rows and vecs n rows, both row-major dim-length;
// len(out) must be nq*n. The sweep is blocked over vecs so each
// cache-resident block of vectors is visited by every query before the
// next block loads — one pass of memory traffic for the whole batch
// instead of one per query.
func DistanceBatch(queries, vecs []float32, dim int, out []float64) {
	if dim <= 0 {
		panic(fmt.Sprintf("kernel: DistanceBatch dim must be positive, got %d", dim))
	}
	if len(queries)%dim != 0 || len(vecs)%dim != 0 {
		panic(fmt.Sprintf("kernel: DistanceBatch ragged input: %d query floats, %d vector floats, dim %d",
			len(queries), len(vecs), dim))
	}
	nq, n := len(queries)/dim, len(vecs)/dim
	if len(out) != nq*n {
		panic(fmt.Sprintf("kernel: DistanceBatch out has %d cells, want %d×%d", len(out), nq, n))
	}
	im := active.Load()
	block := blockRows(dim)
	for r0 := 0; r0 < n; r0 += block {
		r1 := min(r0+block, n)
		for qi := 0; qi < nq; qi++ {
			im.rows(queries[qi*dim:(qi+1)*dim], vecs[r0*dim:r1*dim], dim, out[qi*n+r0:qi*n+r1])
		}
	}
}
