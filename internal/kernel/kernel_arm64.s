//go:build arm64 && !noasm

#include "textflag.h"

// Loop placement. Every routine pins the head of its outermost vector
// loop with PCALIGN $16 (one fetch group), for the reasons given at the
// top of kernel_amd64.s: inner heads sit a fixed distance past an
// aligned outer one, and the scalar tails are left alone.

// func pairAsm(q, v *float32, n int) float64
//
// Squared L2 distance between two n-length float32 vectors, computed in
// float64 per the summation order specified in kernel.go: four 2-lane
// double accumulators hold the 8 strided partial sums (V16 = {p0,p1},
// V17 = {p2,p3}, V18 = {p4,p5}, V19 = {p6,p7}), fed 8 elements per
// iteration, reduced with the fixed tree
// ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)), then a sequential scalar tail
// for n mod 8 elements. Every arithmetic step is a single IEEE-754
// double rounding (convert, subtract, multiply, add — no FMA/FMLA), and
// a NaN result is canonicalized to the math.NaN() bit pattern, matching
// sqDistGeneric bit for bit on every input.
//
// The widening converts and the 2-lane double arithmetic are WORD-coded:
// the Go assembler accepts VLD1/VEOR and the scalar FP forms, but not
// FCVTL/FCVTL2 or the .2D arithmetic (FADD/FSUB/FMUL on vector doubles).
// Encodings (ARMv8 A64):
//
//	FCVTL  Vd.2D, Vn.2S = 0x0E617800 | n<<5 | d
//	FCVTL2 Vd.2D, Vn.4S = 0x4E617800 | n<<5 | d
//	FADD   Vd.2D, Vn.2D, Vm.2D = 0x4E60D400 | m<<16 | n<<5 | d
//	FSUB   Vd.2D, Vn.2D, Vm.2D = 0x4EE0D400 | m<<16 | n<<5 | d
//	FMUL   Vd.2D, Vn.2D, Vm.2D = 0x6E60DC00 | m<<16 | n<<5 | d
TEXT ·pairAsm(SB), NOSPLIT, $0-32
	MOVD q+0(FP), R0
	MOVD v+8(FP), R1
	MOVD n+16(FP), R2
	VEOR V16.B16, V16.B16, V16.B16 // acc {p0,p1}
	VEOR V17.B16, V17.B16, V17.B16 // acc {p2,p3}
	VEOR V18.B16, V18.B16, V18.B16 // acc {p4,p5}
	VEOR V19.B16, V19.B16, V19.B16 // acc {p6,p7}
	AND  $-8, R2, R3               // R3 = n &^ 7, the blocked prefix
	MOVD ZR, R4                    // R4 = element index j
	CBZ  R3, reduce

	PCALIGN $16
blocked:
	VLD1.P 32(R0), [V4.S4, V5.S4] // q[j..j+3], q[j+4..j+7]
	VLD1.P 32(R1), [V6.S4, V7.S4] // v[j..j+3], v[j+4..j+7]

	// Lanes j, j+1 into V16.
	WORD $0x0E617880 // FCVTL  V0.2D, V4.2S    2 × float32 -> 2 × float64
	WORD $0x0E6178C1 // FCVTL  V1.2D, V6.2S
	WORD $0x4EE1D400 // FSUB   V0.2D, V0.2D, V1.2D   d = q - v
	WORD $0x6E60DC00 // FMUL   V0.2D, V0.2D, V0.2D   d*d
	WORD $0x4E60D610 // FADD   V16.2D, V16.2D, V0.2D p[k] += d*d

	// Lanes j+2, j+3 into V17.
	WORD $0x4E617881 // FCVTL2 V1.2D, V4.4S
	WORD $0x4E6178C2 // FCVTL2 V2.2D, V6.4S
	WORD $0x4EE2D421 // FSUB   V1.2D, V1.2D, V2.2D
	WORD $0x6E61DC21 // FMUL   V1.2D, V1.2D, V1.2D
	WORD $0x4E61D631 // FADD   V17.2D, V17.2D, V1.2D

	// Lanes j+4, j+5 into V18.
	WORD $0x0E6178A0 // FCVTL  V0.2D, V5.2S
	WORD $0x0E6178E1 // FCVTL  V1.2D, V7.2S
	WORD $0x4EE1D400 // FSUB   V0.2D, V0.2D, V1.2D
	WORD $0x6E60DC00 // FMUL   V0.2D, V0.2D, V0.2D
	WORD $0x4E60D652 // FADD   V18.2D, V18.2D, V0.2D

	// Lanes j+6, j+7 into V19.
	WORD $0x4E6178A1 // FCVTL2 V1.2D, V5.4S
	WORD $0x4E6178E2 // FCVTL2 V2.2D, V7.4S
	WORD $0x4EE2D421 // FSUB   V1.2D, V1.2D, V2.2D
	WORD $0x6E61DC21 // FMUL   V1.2D, V1.2D, V1.2D
	WORD $0x4E61D673 // FADD   V19.2D, V19.2D, V1.2D

	ADD $8, R4
	CMP R3, R4
	BLT blocked

reduce:
	// s = ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7))
	WORD $0x4E72D614 // FADD V20.2D, V16.2D, V18.2D  {p0+p4, p1+p5}
	WORD $0x4E73D635 // FADD V21.2D, V17.2D, V19.2D  {p2+p6, p3+p7}
	WORD $0x4E75D694 // FADD V20.2D, V20.2D, V21.2D  {lane sums}
	VMOV  V20.D[0], R5
	FMOVD R5, F0
	VMOV  V20.D[1], R6
	FMOVD R6, F1
	FADDD F1, F0, F0 // s in F0

tail:
	CMP R2, R4
	BGE done
	FMOVS  (R0), F2
	FMOVS  (R1), F3
	FCVTSD F2, F2 // float32 -> float64
	FCVTSD F3, F3
	FSUBD  F3, F2, F2
	FMULD  F2, F2, F2
	FADDD  F2, F0, F0
	ADD    $4, R0
	ADD    $4, R1
	ADD    $1, R4
	B      tail

done:
	FCMPD F0, F0 // unordered (V set) iff s is NaN
	BVC   store
	MOVD  $0x7FF8000000000001, R5
	FMOVD R5, F0 // canonical math.NaN() bits
store:
	FMOVD F0, ret+24(FP)
	RET

// func rowsBlockedAsm(q, vecs *float32, dim, n int, out *float64)
//
// out[i] = squared L2 distance between q and row i of vecs, for n
// contiguous dim-length rows (dim ≥ 1): the body of pairAsm above —
// same accumulators, same tree, same tail, same canonical NaN — inside
// a row loop, so one call scores a whole block. R1 walks the rows (the
// blocked loop and the tail leave it at the next row's first element);
// R0 is rewound to the query at the top of every row.
TEXT ·rowsBlockedAsm(SB), NOSPLIT, $0-40
	MOVD q+0(FP), R7
	MOVD vecs+8(FP), R1
	MOVD dim+16(FP), R2
	MOVD n+24(FP), R8
	MOVD out+32(FP), R9
	AND  $-8, R2, R3               // R3 = dim &^ 7, the blocked prefix
	MOVD $0x7FF8000000000001, R10  // canonical math.NaN() bits
	CMP  $1, R8
	BLT  rowsdone

	PCALIGN $16
row:
	MOVD R7, R0
	VEOR V16.B16, V16.B16, V16.B16 // acc {p0,p1}
	VEOR V17.B16, V17.B16, V17.B16 // acc {p2,p3}
	VEOR V18.B16, V18.B16, V18.B16 // acc {p4,p5}
	VEOR V19.B16, V19.B16, V19.B16 // acc {p6,p7}
	MOVD ZR, R4                    // R4 = element index j
	CBZ  R3, reduce

blocked:
	VLD1.P 32(R0), [V4.S4, V5.S4] // q[j..j+3], q[j+4..j+7]
	VLD1.P 32(R1), [V6.S4, V7.S4] // v[j..j+3], v[j+4..j+7]

	// Lanes j, j+1 into V16.
	WORD $0x0E617880 // FCVTL  V0.2D, V4.2S
	WORD $0x0E6178C1 // FCVTL  V1.2D, V6.2S
	WORD $0x4EE1D400 // FSUB   V0.2D, V0.2D, V1.2D   d = q - v
	WORD $0x6E60DC00 // FMUL   V0.2D, V0.2D, V0.2D   d*d
	WORD $0x4E60D610 // FADD   V16.2D, V16.2D, V0.2D p[k] += d*d

	// Lanes j+2, j+3 into V17.
	WORD $0x4E617881 // FCVTL2 V1.2D, V4.4S
	WORD $0x4E6178C2 // FCVTL2 V2.2D, V6.4S
	WORD $0x4EE2D421 // FSUB   V1.2D, V1.2D, V2.2D
	WORD $0x6E61DC21 // FMUL   V1.2D, V1.2D, V1.2D
	WORD $0x4E61D631 // FADD   V17.2D, V17.2D, V1.2D

	// Lanes j+4, j+5 into V18.
	WORD $0x0E6178A0 // FCVTL  V0.2D, V5.2S
	WORD $0x0E6178E1 // FCVTL  V1.2D, V7.2S
	WORD $0x4EE1D400 // FSUB   V0.2D, V0.2D, V1.2D
	WORD $0x6E60DC00 // FMUL   V0.2D, V0.2D, V0.2D
	WORD $0x4E60D652 // FADD   V18.2D, V18.2D, V0.2D

	// Lanes j+6, j+7 into V19.
	WORD $0x4E6178A1 // FCVTL2 V1.2D, V5.4S
	WORD $0x4E6178E2 // FCVTL2 V2.2D, V7.4S
	WORD $0x4EE2D421 // FSUB   V1.2D, V1.2D, V2.2D
	WORD $0x6E61DC21 // FMUL   V1.2D, V1.2D, V1.2D
	WORD $0x4E61D673 // FADD   V19.2D, V19.2D, V1.2D

	ADD $8, R4
	CMP R3, R4
	BLT blocked

reduce:
	// s = ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7))
	WORD $0x4E72D614 // FADD V20.2D, V16.2D, V18.2D  {p0+p4, p1+p5}
	WORD $0x4E73D635 // FADD V21.2D, V17.2D, V19.2D  {p2+p6, p3+p7}
	WORD $0x4E75D694 // FADD V20.2D, V20.2D, V21.2D  {lane sums}
	VMOV  V20.D[0], R5
	FMOVD R5, F0
	VMOV  V20.D[1], R6
	FMOVD R6, F1
	FADDD F1, F0, F0 // s in F0

tail:
	CMP R2, R4
	BGE canon
	FMOVS  (R0), F2
	FMOVS  (R1), F3
	FCVTSD F2, F2 // float32 -> float64
	FCVTSD F3, F3
	FSUBD  F3, F2, F2
	FMULD  F2, F2, F2
	FADDD  F2, F0, F0
	ADD    $4, R0
	ADD    $4, R1
	ADD    $1, R4
	B      tail

canon:
	FMOVD F0, R5
	FCMPD F0, F0 // unordered (V set) iff s is NaN
	CSEL  VS, R10, R5, R5
	MOVD  R5, (R9)
	ADD   $8, R9
	SUB   $1, R8
	CBNZ  R8, row

rowsdone:
	RET

// func planarAsm(qd *float64, planes *float32, dim, stride, n int, out *float64, best *planarBest)
//
// A planar (dimension-major) centroid table, 1 ≤ dim ≤ 7 planes stride
// floats apart, where the specified order is s = (((t0+t1)+t2)+…): two
// centroids per step, ONE CENTROID PER DOUBLE LANE of V16, so the lanes
// never meet and each is summed in ascending j exactly as the scalar
// tail of rowsBlockedAsm would. qd is the query already widened to
// float64 (dim doubles); n must be a positive multiple of 2. Coordinate
// j of the two centroids is one 8-byte load, widened, subtracted from
// the broadcast qd[j], squared and added (no FMLA). The accumulator
// starts at +0: +0 + t0 is t0 exactly, a term is never -0. Encodings as
// listed above pairAsm.
//
// out non-nil: the two sums are stored there, NaN lanes canonicalized.
// out nil: the fused argmin. F4/F5 hold each lane's best distance so
// far and R12/R13 the index it was found at; R14/R15 are the indexes of
// the centroids now in the lanes (best.i on entry, +2 per step). A lane
// is replaced on MI after FCMPD — sum < best, ordered, so a NaN sum
// never is, and strict, so the first of equal sums stays — and all four
// go back to *best at the end for the caller to reduce.
TEXT ·planarAsm(SB), NOSPLIT, $0-56
	MOVD qd+0(FP), R7
	MOVD planes+8(FP), R1
	MOVD dim+16(FP), R2
	MOVD stride+24(FP), R3
	MOVD n+32(FP), R8
	MOVD out+40(FP), R9
	MOVD best+48(FP), R11
	LSL  $2, R3, R3                // R3 = plane stride in bytes
	MOVD $0x7FF8000000000001, R10  // canonical math.NaN() bits
	CBNZ R9, step
	FMOVD (R11), F4
	FMOVD 8(R11), F5
	MOVD  16(R11), R14
	MOVD  24(R11), R15
	MOVD  ZR, R12
	MOVD  ZR, R13

	PCALIGN $16
step:
	VEOR V16.B16, V16.B16, V16.B16 // lane c = sum of centroid c
	MOVD R7, R0                    // R0 = &qd[j]
	MOVD R1, R6                    // R6 = &plane j[centroid 0 of the step]
	MOVD R2, R4                    // R4 = planes left
plane:
	FMOVD   (R6), F0               // coordinate j of centroids 0, 1
	VLD1R.P 8(R0), [V1.D2]         // {qd[j], qd[j]}
	WORD $0x0E617800 // FCVTL V0.2D, V0.2S
	WORD $0x4EE0D420 // FSUB  V0.2D, V1.2D, V0.2D    d = q[j] - v[j]
	WORD $0x6E60DC00 // FMUL  V0.2D, V0.2D, V0.2D    d*d
	WORD $0x4E60D610 // FADD  V16.2D, V16.2D, V0.2D  s += d*d
	ADD  R3, R6
	SUB  $1, R4
	CBNZ R4, plane

	VMOV  V16.D[0], R4
	FMOVD R4, F0
	VMOV  V16.D[1], R5
	FMOVD R5, F1
	CBZ   R9, argmin
	FCMPD F0, F0 // unordered (V set) iff the lane is NaN
	CSEL  VS, R10, R4, R4
	FCMPD F1, F1
	CSEL  VS, R10, R5, R5
	MOVD  R4, (R9)
	MOVD  R5, 8(R9)
	ADD   $16, R9
	B     next
argmin:
	FCMPD  F4, F0 // MI iff sum < best (clear on NaN)
	FCSELD MI, F0, F4, F4
	CSEL   MI, R14, R12, R12
	FCMPD  F5, F1
	FCSELD MI, F1, F5, F5
	CSEL   MI, R15, R13, R13
	ADD    $2, R14
	ADD    $2, R15
next:
	ADD  $8, R1                    // next two centroids
	SUB  $2, R8
	CBNZ R8, step

	CBNZ  R9, done
	FMOVD F4, (R11)
	FMOVD F5, 8(R11)
	MOVD  R12, 16(R11)
	MOVD  R13, 24(R11)
done:
	RET

// func rowsScreenAsm(q, vecs *float32, dim, n int, out *float32) (lo, hi uint32)
//
// The screening pass of the screened argmin (kernel.go): out[i] ≈ the
// squared L2 distance between q and row i in plain float32 — 4-lane
// FSUB and FMLA, no widening — for n ≥ 1 contiguous rows of dim ≥ 8
// floats. These values are NOT under the bit-stability contract; only
// the error bound documented in kernel.go is relied on, and every path
// through here is at most dim/8 + 12 roundings deep.
//
// One row per pass of the row loop, 8 floats per step into two 4-lane
// accumulators (V16, V17), folded by one vector add and two pairwise
// adds, then a scalar tail for the dim mod 8 leftover elements. lo and
// hi are the unsigned minimum and maximum of the float32 BIT PATTERNS
// written to out, kept in R11/R12: a sum of squares is +0 or positive,
// so below +Inf the unsigned order is the float order, and any NaN
// (either sign) or +Inf lands above every finite value — hi alone
// tells the caller whether the block is safe to trust.
//
// The assembler has VFMLA; the other .4S arithmetic is WORD-coded like
// the .2D forms above pairAsm (ARMv8 A64; sz = 0 selects single
// precision):
//
//	FADD  Vd.4S, Vn.4S, Vm.4S = 0x4E20D400 | m<<16 | n<<5 | d
//	FSUB  Vd.4S, Vn.4S, Vm.4S = 0x4EA0D400 | m<<16 | n<<5 | d
//	FADDP Vd.4S, Vn.4S, Vm.4S = 0x6E20D400 | m<<16 | n<<5 | d
//	FADDP Sd, Vn.2S           = 0x7E30D800 | n<<5 | d
TEXT ·rowsScreenAsm(SB), NOSPLIT, $0-48
	MOVD q+0(FP), R7
	MOVD vecs+8(FP), R1
	MOVD dim+16(FP), R2
	MOVD n+24(FP), R8
	MOVD out+32(FP), R9
	AND  $-8, R2, R3               // R3 = dim &^ 7, the blocked prefix
	MOVD $0xFFFFFFFF, R11          // running min of the bit patterns
	MOVD ZR, R12                   // running max

	PCALIGN $16
row:
	MOVD R7, R0
	VEOR V16.B16, V16.B16, V16.B16 // lane sums, elements j..j+3
	VEOR V17.B16, V17.B16, V17.B16 // lane sums, elements j+4..j+7
	MOVD ZR, R4                    // R4 = element index j

blocked:
	VLD1.P 32(R0), [V4.S4, V5.S4] // q[j..j+3], q[j+4..j+7]
	VLD1.P 32(R1), [V6.S4, V7.S4] // v[j..j+3], v[j+4..j+7]
	WORD  $0x4EA6D480              // FSUB V0.4S, V4.4S, V6.4S   d = q - v
	VFMLA V0.S4, V0.S4, V16.S4     // sum += d*d
	WORD  $0x4EA7D4A1              // FSUB V1.4S, V5.4S, V7.4S
	VFMLA V1.S4, V1.S4, V17.S4
	ADD $8, R4
	CMP R3, R4
	BLT blocked

	WORD $0x4E31D610 // FADD  V16.4S, V16.4S, V17.4S
	WORD $0x6E30D610 // FADDP V16.4S, V16.4S, V16.4S {s0+s1, s2+s3, …}
	WORD $0x7E30DA00 // FADDP S0, V16.2S             row sum in F0

tail:
	CMP R2, R4
	BGE store
	FMOVS (R0), F2
	FMOVS (R1), F3
	FSUBS F3, F2, F2
	FMULS F2, F2, F2
	FADDS F2, F0, F0
	ADD   $4, R0
	ADD   $4, R1
	ADD   $1, R4
	B     tail

store:
	FMOVS F0, R5                   // the bit pattern, zero-extended
	MOVW  R5, (R9)
	ADD   $4, R9
	CMPW  R11, R5
	CSELW LO, R5, R11, R11
	CMPW  R12, R5
	CSELW HI, R5, R12, R12
	SUB   $1, R8
	CBNZ  R8, row

	MOVW R11, lo+40(FP)
	MOVW R12, hi+44(FP)
	RET
