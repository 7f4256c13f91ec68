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

// func planarAsm(qd *float64, planes *float32, dim, stride, n int, out *float64)
//
// A planar (dimension-major) centroid table, 1 ≤ dim ≤ 7 planes stride
// floats apart, where the specified order is s = (((t0+t1)+t2)+…): two
// centroids per step, ONE CENTROID PER DOUBLE LANE of V16, so the lanes
// never meet and each is summed in ascending j exactly as the scalar
// tail of rowsBlockedAsm would. qd is the query already widened to
// float64 (dim doubles); n must be a positive multiple of 2. Coordinate
// j of the two centroids is one 8-byte load, widened, subtracted from
// the broadcast qd[j], squared and added (no FMLA). The accumulator
// starts at +0: +0 + t0 is t0 exactly, a term is never -0. The two sums
// are stored to out, NaN lanes canonicalized. Encodings as listed above
// pairAsm.
TEXT ·planarAsm(SB), NOSPLIT, $0-48
	MOVD qd+0(FP), R7
	MOVD planes+8(FP), R1
	MOVD dim+16(FP), R2
	MOVD stride+24(FP), R3
	MOVD n+32(FP), R8
	MOVD out+40(FP), R9
	LSL  $2, R3, R3                // R3 = plane stride in bytes
	MOVD $0x7FF8000000000001, R10  // canonical math.NaN() bits

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
	FCMPD F0, F0 // unordered (V set) iff the lane is NaN
	CSEL  VS, R10, R4, R4
	FCMPD F1, F1
	CSEL  VS, R10, R5, R5
	MOVD  R4, (R9)
	MOVD  R5, 8(R9)
	ADD   $16, R9
	ADD   $8, R1                   // next two centroids
	SUB   $2, R8
	CBNZ  R8, step
	RET

// func accumulateAsm(sums *float64, v *float32, n int)
//
// sums[j] = sums[j] + float64(v[j]) for j < n ≥ 1: eight elements per
// step, two 4-float loads widened by FCVTL/FCVTL2 into four pairs of
// doubles and added by FADD .2D with the sum as the first operand (Vn) —
// the operand order of the scalar loop's compiled FADDD, so where both
// are NaN the same payload survives — then a scalar tail. Each element
// is one double addition, so the bits are the scalar loop's whatever
// the grouping. Encodings as listed above pairAsm.
TEXT ·accumulateAsm(SB), NOSPLIT, $0-24
	MOVD sums+0(FP), R0
	MOVD v+8(FP), R1
	MOVD n+16(FP), R2
	AND  $-8, R2, R3               // R3 = n &^ 7
	CBZ  R3, acctail

	PCALIGN $16
accblk:
	VLD1.P 32(R1), [V0.S4, V1.S4]  // v[j..j+7]
	VLD1   (R0), [V2.D2, V3.D2, V4.D2, V5.D2] // sums[j..j+7]
	WORD $0x0E617806 // FCVTL V6.2D, V0.2S
	WORD $0x4E617807 // FCVTL2 V7.2D, V0.4S
	WORD $0x0E617830 // FCVTL V16.2D, V1.2S
	WORD $0x4E617831 // FCVTL2 V17.2D, V1.4S
	WORD $0x4E66D442 // FADD  V2.2D, V2.2D, V6.2D
	WORD $0x4E67D463 // FADD  V3.2D, V3.2D, V7.2D
	WORD $0x4E70D484 // FADD  V4.2D, V4.2D, V16.2D
	WORD $0x4E71D4A5 // FADD  V5.2D, V5.2D, V17.2D
	VST1.P [V2.D2, V3.D2, V4.D2, V5.D2], 64(R0)
	SUB  $8, R3
	CBNZ R3, accblk

acctail:
	AND  $7, R2
	CBZ  R2, accdone
accone:
	FMOVS  (R1), F0
	FCVTSD F0, F0
	FMOVD  (R0), F1
	FADDD  F0, F1, F1              // sums[j] the first operand (Dn)
	FMOVD  F1, (R0)
	ADD    $4, R1
	ADD    $8, R0
	SUB    $1, R2
	CBNZ   R2, accone
accdone:
	RET

// Encodings of the WORD-coded .4S forms (sz = 0) beside those above
// pairAsm and planarAsm:
//
//	FADD  Vd.4S, Vn.4S, Vm.4S = 0x4E20D400 | m<<16 | n<<5 | d
//	FSUB  Vd.4S, Vn.4S, Vm.4S = 0x4EA0D400 | m<<16 | n<<5 | d
//	FADDP Vd.4S, Vn.4S, Vm.4S = 0x6E20D400 | m<<16 | n<<5 | d
//	FADDP Sd, Vn.2S           = 0x7E30D800 | n<<5 | d
//	FCMGT Vd.4S, Vn.4S, Vm.4S = 0x6EA0E400 | m<<16 | n<<5 | d

// func planarScreenAsm(qs, planes, norms *float32, dim, stride, n, nq int, out *float32, res *screenResult)
//
// The screen of the screened argmin (kernel.go), as on amd64: the
// dot-form values s = ‖c‖² − 2·q·c of nq (1…4) queries of dim ≥ 1 floats,
// concatenated at qs, against n ≥ 16 centroids, dim planes stride floats
// apart (n ≤ 256); query slot t's value for centroid i goes to
// out[t*256+i], slots past nq reading the last query again. ‖q‖²
// (res.qq) is summed in 8-float blocks into two
// accumulators per slot (V16..V23), reduced three levels, then the
// dim mod 8 leftover elements by fused FMADDs — at most ⌈dim/8⌉ + 10
// roundings deep, within dim + 4 from dim 8 on, and a chain of dim
// FMADDs below it. Then SIXTEEN CENTROIDS PER STEP, one per float lane,
// coordinate j of the sixteen one load from plane j:
//
//   - nq ≥ 2: each slot's broadcast q[j] times the four vectors fused
//     into that slot's dots (V8..V23, sixteen independent chains), in
//     ascending j; then per slot 2·dot (exact) and ‖c‖² − 2·dot, one
//     rounding, with the sixteen ‖c‖² read from norms (planarNormsAsm's).
//   - nq = 1: the squares summed into ‖c‖² (V24..V27) beside the one
//     slot's dots (V8..V11), then s as above; only slot 0's values are
//     stored.
//
// Every term is at most dim + 1 roundings deep. When n is not a multiple
// of 16 the last step is re-anchored at centroid n-16 and rewrites up to
// fifteen values. V28..V31 keep each slot's smallest values lane by lane
// (FMIN: a NaN sticks, and the limit is then +Inf), folded at the end
// (FMINV) into res.lim, for screenSelectAsm.
//
// Encodings of the WORD-coded forms beside those above pairAsm and
// above this comment:
//
//	FMIN  Vd.4S, Vn.4S, Vm.4S = 0x4EA0F400 | m<<16 | n<<5 | d
//	FMINV Sd, Vn.4S           = 0x6EB0F800 | n<<5 | d
TEXT ·planarScreenAsm(SB), NOSPLIT, $0-72
	MOVD qs+0(FP), R0
	MOVD planes+8(FP), R1
	MOVD norms+16(FP), R12
	MOVD dim+24(FP), R2
	MOVD stride+32(FP), R3
	MOVD n+40(FP), R8
	MOVD nq+48(FP), R13
	MOVD out+56(FP), R9
	MOVD res+64(FP), R11
	LSL  $2, R3, R3                // R3 = plane stride in bytes
	LSL  $2, R2, R10               // R10 = query stride in bytes
	SUB  $1, R13, R15              // R15 = nq-1: 0 for a batch of one

	// Query pointers of slots 1..3 (R4, R5, R6), clamped to the last query.
	MOVD $1, R7
	CMP  R7, R15
	CSEL LT, R15, R7, R7
	MUL  R10, R7, R7
	ADD  R0, R7, R4
	MOVD $2, R7
	CMP  R7, R15
	CSEL LT, R15, R7, R7
	MUL  R10, R7, R7
	ADD  R0, R7, R5
	MOVD $3, R7
	CMP  R7, R15
	CSEL LT, R15, R7, R7
	MUL  R10, R7, R7
	ADD  R0, R7, R6

	// ‖q‖² of the four slots into F16, F18, F20, F22, then res.qq.
	MOVD R0, R19
	MOVD R4, R20
	MOVD R5, R21
	MOVD R6, R22
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16
	VEOR V18.B16, V18.B16, V18.B16
	VEOR V19.B16, V19.B16, V19.B16
	VEOR V20.B16, V20.B16, V20.B16
	VEOR V21.B16, V21.B16, V21.B16
	VEOR V22.B16, V22.B16, V22.B16
	VEOR V23.B16, V23.B16, V23.B16
	AND  $-8, R2, R14              // R14 = dim &^ 7
	CBZ  R14, qqred
qqblk:
	VLD1.P 32(R19), [V0.S4, V1.S4]
	VLD1.P 32(R20), [V2.S4, V3.S4]
	VLD1.P 32(R21), [V4.S4, V5.S4]
	VLD1.P 32(R22), [V6.S4, V7.S4]
	VFMLA V0.S4, V0.S4, V16.S4
	VFMLA V1.S4, V1.S4, V17.S4
	VFMLA V2.S4, V2.S4, V18.S4
	VFMLA V3.S4, V3.S4, V19.S4
	VFMLA V4.S4, V4.S4, V20.S4
	VFMLA V5.S4, V5.S4, V21.S4
	VFMLA V6.S4, V6.S4, V22.S4
	VFMLA V7.S4, V7.S4, V23.S4
	SUB  $8, R14
	CBNZ R14, qqblk
qqred:
	WORD $0x4E31D610 // FADD  V16.4S, V16.4S, V17.4S
	WORD $0x6E30D610 // FADDP V16.4S, V16.4S, V16.4S
	WORD $0x7E30DA10 // FADDP S16, V16.2S
	WORD $0x4E33D652 // FADD  V18.4S, V18.4S, V19.4S
	WORD $0x6E32D652 // FADDP V18.4S, V18.4S, V18.4S
	WORD $0x7E30DA52 // FADDP S18, V18.2S
	WORD $0x4E35D694 // FADD  V20.4S, V20.4S, V21.4S
	WORD $0x6E34D694 // FADDP V20.4S, V20.4S, V20.4S
	WORD $0x7E30DA94 // FADDP S20, V20.2S
	WORD $0x4E37D6D6 // FADD  V22.4S, V22.4S, V23.4S
	WORD $0x6E36D6D6 // FADDP V22.4S, V22.4S, V22.4S
	WORD $0x7E30DAD6 // FADDP S22, V22.2S
	AND  $7, R2, R14               // R14 = the leftover elements
	CBZ  R14, qqdone
qqtail:
	FMOVS  (R19), F0
	FMADDS F0, F16, F0, F16        // F16 += q[j]·q[j], one rounding
	FMOVS  (R20), F0
	FMADDS F0, F18, F0, F18
	FMOVS  (R21), F0
	FMADDS F0, F20, F0, F20
	FMOVS  (R22), F0
	FMADDS F0, F22, F0, F22
	ADD  $4, R19
	ADD  $4, R20
	ADD  $4, R21
	ADD  $4, R22
	SUB  $1, R14
	CBNZ R14, qqtail
qqdone:
	FMOVS F16, 40(R11)
	FMOVS F18, 44(R11)
	FMOVS F20, 48(R11)
	FMOVS F22, 52(R11)

	MOVW $0x7F800000, R7
	VDUP R7, V28.S4                // running minima of slots 0..3: +Inf
	VDUP R7, V29.S4
	VDUP R7, V30.S4
	VDUP R7, V31.S4
	CBZ  R15, sgroup

	PCALIGN $16
group:
	VEOR V8.B16, V8.B16, V8.B16    // q·c, slot 0, centroids 0..3 of the step
	VEOR V9.B16, V9.B16, V9.B16    // slot 0, 4..7
	VEOR V10.B16, V10.B16, V10.B16
	VEOR V11.B16, V11.B16, V11.B16
	VEOR V12.B16, V12.B16, V12.B16 // slot 1
	VEOR V13.B16, V13.B16, V13.B16
	VEOR V14.B16, V14.B16, V14.B16
	VEOR V15.B16, V15.B16, V15.B16
	VEOR V16.B16, V16.B16, V16.B16 // slot 2
	VEOR V17.B16, V17.B16, V17.B16
	VEOR V18.B16, V18.B16, V18.B16
	VEOR V19.B16, V19.B16, V19.B16
	VEOR V20.B16, V20.B16, V20.B16 // slot 3
	VEOR V21.B16, V21.B16, V21.B16
	VEOR V22.B16, V22.B16, V22.B16
	VEOR V23.B16, V23.B16, V23.B16
	MOVD R0, R19                   // the four slots' queries, walked per plane
	MOVD R4, R20
	MOVD R5, R21
	MOVD R6, R22
	MOVD R1, R7                    // R7 = &plane j[the step]
	MOVD R2, R14                   // R14 = planes left
plane:
	VLD1    (R7), [V0.S4, V1.S4, V2.S4, V3.S4] // coordinate j of the sixteen
	VLD1R.P 4(R19), [V4.S4]        // each slot's q[j], every lane
	VLD1R.P 4(R20), [V5.S4]
	VLD1R.P 4(R21), [V6.S4]
	VLD1R.P 4(R22), [V7.S4]
	VFMLA   V4.S4, V0.S4, V8.S4
	VFMLA   V4.S4, V1.S4, V9.S4
	VFMLA   V4.S4, V2.S4, V10.S4
	VFMLA   V4.S4, V3.S4, V11.S4
	VFMLA   V5.S4, V0.S4, V12.S4
	VFMLA   V5.S4, V1.S4, V13.S4
	VFMLA   V5.S4, V2.S4, V14.S4
	VFMLA   V5.S4, V3.S4, V15.S4
	VFMLA   V6.S4, V0.S4, V16.S4
	VFMLA   V6.S4, V1.S4, V17.S4
	VFMLA   V6.S4, V2.S4, V18.S4
	VFMLA   V6.S4, V3.S4, V19.S4
	VFMLA   V7.S4, V0.S4, V20.S4
	VFMLA   V7.S4, V1.S4, V21.S4
	VFMLA   V7.S4, V2.S4, V22.S4
	VFMLA   V7.S4, V3.S4, V23.S4
	ADD  R3, R7
	SUB  $1, R14
	CBNZ R14, plane

	// Per slot ‖c‖² − 2·dot (the doubling is exact), stored, then folded
	// into the slot's minima.
	VLD1 (R12), [V24.S4, V25.S4, V26.S4, V27.S4] // ‖c‖² of the sixteen
	WORD $0x4E28D508 // FADD  V8.4S, V8.4S, V8.4S
	WORD $0x4EA8D708 // FSUB  V8.4S, V24.4S, V8.4S
	WORD $0x4E29D529 // FADD  V9.4S, V9.4S, V9.4S
	WORD $0x4EA9D729 // FSUB  V9.4S, V25.4S, V9.4S
	WORD $0x4E2AD54A // FADD  V10.4S, V10.4S, V10.4S
	WORD $0x4EAAD74A // FSUB  V10.4S, V26.4S, V10.4S
	WORD $0x4E2BD56B // FADD  V11.4S, V11.4S, V11.4S
	WORD $0x4EABD76B // FSUB  V11.4S, V27.4S, V11.4S
	WORD $0x4E2CD58C // FADD  V12.4S, V12.4S, V12.4S
	WORD $0x4EACD70C // FSUB  V12.4S, V24.4S, V12.4S
	WORD $0x4E2DD5AD // FADD  V13.4S, V13.4S, V13.4S
	WORD $0x4EADD72D // FSUB  V13.4S, V25.4S, V13.4S
	WORD $0x4E2ED5CE // FADD  V14.4S, V14.4S, V14.4S
	WORD $0x4EAED74E // FSUB  V14.4S, V26.4S, V14.4S
	WORD $0x4E2FD5EF // FADD  V15.4S, V15.4S, V15.4S
	WORD $0x4EAFD76F // FSUB  V15.4S, V27.4S, V15.4S
	WORD $0x4E30D610 // FADD  V16.4S, V16.4S, V16.4S
	WORD $0x4EB0D710 // FSUB  V16.4S, V24.4S, V16.4S
	WORD $0x4E31D631 // FADD  V17.4S, V17.4S, V17.4S
	WORD $0x4EB1D731 // FSUB  V17.4S, V25.4S, V17.4S
	WORD $0x4E32D652 // FADD  V18.4S, V18.4S, V18.4S
	WORD $0x4EB2D752 // FSUB  V18.4S, V26.4S, V18.4S
	WORD $0x4E33D673 // FADD  V19.4S, V19.4S, V19.4S
	WORD $0x4EB3D773 // FSUB  V19.4S, V27.4S, V19.4S
	WORD $0x4E34D694 // FADD  V20.4S, V20.4S, V20.4S
	WORD $0x4EB4D714 // FSUB  V20.4S, V24.4S, V20.4S
	WORD $0x4E35D6B5 // FADD  V21.4S, V21.4S, V21.4S
	WORD $0x4EB5D735 // FSUB  V21.4S, V25.4S, V21.4S
	WORD $0x4E36D6D6 // FADD  V22.4S, V22.4S, V22.4S
	WORD $0x4EB6D756 // FSUB  V22.4S, V26.4S, V22.4S
	WORD $0x4E37D6F7 // FADD  V23.4S, V23.4S, V23.4S
	WORD $0x4EB7D777 // FSUB  V23.4S, V27.4S, V23.4S
	VST1 [V8.S4, V9.S4, V10.S4, V11.S4], (R9) // query t's values are 1 KiB apart
	ADD  $1024, R9, R7
	VST1 [V12.S4, V13.S4, V14.S4, V15.S4], (R7)
	ADD  $1024, R7
	VST1 [V16.S4, V17.S4, V18.S4, V19.S4], (R7)
	ADD  $1024, R7
	VST1 [V20.S4, V21.S4, V22.S4, V23.S4], (R7)
	WORD $0x4EA9F508 // FMIN  V8.4S, V8.4S, V9.4S
	WORD $0x4EABF54A // FMIN  V10.4S, V10.4S, V11.4S
	WORD $0x4EAAF508 // FMIN  V8.4S, V8.4S, V10.4S
	WORD $0x4EA8F79C // FMIN  V28.4S, V28.4S, V8.4S
	WORD $0x4EADF58C // FMIN  V12.4S, V12.4S, V13.4S
	WORD $0x4EAFF5CE // FMIN  V14.4S, V14.4S, V15.4S
	WORD $0x4EAEF58C // FMIN  V12.4S, V12.4S, V14.4S
	WORD $0x4EACF7BD // FMIN  V29.4S, V29.4S, V12.4S
	WORD $0x4EB1F610 // FMIN  V16.4S, V16.4S, V17.4S
	WORD $0x4EB3F652 // FMIN  V18.4S, V18.4S, V19.4S
	WORD $0x4EB2F610 // FMIN  V16.4S, V16.4S, V18.4S
	WORD $0x4EB0F7DE // FMIN  V30.4S, V30.4S, V16.4S
	WORD $0x4EB5F694 // FMIN  V20.4S, V20.4S, V21.4S
	WORD $0x4EB7F6D6 // FMIN  V22.4S, V22.4S, V23.4S
	WORD $0x4EB6F694 // FMIN  V20.4S, V20.4S, V22.4S
	WORD $0x4EB4F7FF // FMIN  V31.4S, V31.4S, V20.4S
	ADD  $64, R1                   // next sixteen centroids
	ADD  $64, R9
	ADD  $64, R12
	SUB  $16, R8
	CMP  $16, R8
	BGE  group
	CBZ  R8, fold
	SUB  $16, R8, R7               // 1..15 left: step back to centroid n-16
	LSL  $2, R7, R7
	ADD  R7, R1
	ADD  R7, R9
	ADD  R7, R12
	MOVD $16, R8
	B    group

	PCALIGN $16
sgroup:
	VEOR V8.B16, V8.B16, V8.B16    // q·c of centroids 0..3 of the step
	VEOR V9.B16, V9.B16, V9.B16
	VEOR V10.B16, V10.B16, V10.B16
	VEOR V11.B16, V11.B16, V11.B16
	VEOR V24.B16, V24.B16, V24.B16 // ‖c‖² of centroids 0..3
	VEOR V25.B16, V25.B16, V25.B16
	VEOR V26.B16, V26.B16, V26.B16
	VEOR V27.B16, V27.B16, V27.B16
	MOVD R0, R19
	MOVD R1, R7
	MOVD R2, R14
splane:
	VLD1    (R7), [V0.S4, V1.S4, V2.S4, V3.S4]
	VLD1R.P 4(R19), [V4.S4]
	VFMLA   V0.S4, V0.S4, V24.S4
	VFMLA   V1.S4, V1.S4, V25.S4
	VFMLA   V2.S4, V2.S4, V26.S4
	VFMLA   V3.S4, V3.S4, V27.S4
	VFMLA   V4.S4, V0.S4, V8.S4
	VFMLA   V4.S4, V1.S4, V9.S4
	VFMLA   V4.S4, V2.S4, V10.S4
	VFMLA   V4.S4, V3.S4, V11.S4
	ADD  R3, R7
	SUB  $1, R14
	CBNZ R14, splane
	WORD $0x4E28D508 // FADD  V8.4S, V8.4S, V8.4S
	WORD $0x4EA8D708 // FSUB  V8.4S, V24.4S, V8.4S
	WORD $0x4E29D529 // FADD  V9.4S, V9.4S, V9.4S
	WORD $0x4EA9D729 // FSUB  V9.4S, V25.4S, V9.4S
	WORD $0x4E2AD54A // FADD  V10.4S, V10.4S, V10.4S
	WORD $0x4EAAD74A // FSUB  V10.4S, V26.4S, V10.4S
	WORD $0x4E2BD56B // FADD  V11.4S, V11.4S, V11.4S
	WORD $0x4EABD76B // FSUB  V11.4S, V27.4S, V11.4S
	VST1 [V8.S4, V9.S4, V10.S4, V11.S4], (R9)
	WORD $0x4EA9F508 // FMIN  V8.4S, V8.4S, V9.4S
	WORD $0x4EABF54A // FMIN  V10.4S, V10.4S, V11.4S
	WORD $0x4EAAF508 // FMIN  V8.4S, V8.4S, V10.4S
	WORD $0x4EA8F79C // FMIN  V28.4S, V28.4S, V8.4S
	ADD  $64, R1
	ADD  $64, R9
	SUB  $16, R8
	CMP  $16, R8
	BGE  sgroup
	CBZ  R8, fold
	SUB  $16, R8, R7
	LSL  $2, R7, R7
	ADD  R7, R1
	ADD  R7, R9
	MOVD $16, R8
	B    sgroup

fold:
	WORD $0x6EB0FB9C // FMINV S28, V28.4S
	WORD $0x6EB0FBBD // FMINV S29, V29.4S
	WORD $0x6EB0FBDE // FMINV S30, V30.4S
	WORD $0x6EB0FBFF // FMINV S31, V31.4S
	FMOVS F28, 24(R11)             // res.lim: the minima
	FMOVS F29, 28(R11)
	FMOVS F30, 32(R11)
	FMOVS F31, 36(R11)
	RET

// func planarNormsAsm(planes *float32, dim, stride, n int, out *float32)
//
// The float32 ‖c‖² of n ≥ 16 centroids (n ≤ 256) of a planar table, dim
// ≥ 1 planes stride floats apart, into out[0..n) — the norms a tile of
// planarScreenAsm reads: sixteen centroids per step, the even planes
// fused into V16..V19 and the odd ones into V20..V23 (eight independent
// chains), added at the end, so a term is at most ⌈dim/2⌉ + 1 roundings
// deep. When n is not a multiple of 16 the last step is re-anchored at
// centroid n-16 and rewrites up to fifteen norms with the same values.
TEXT ·planarNormsAsm(SB), NOSPLIT, $0-40
	MOVD planes+0(FP), R1
	MOVD dim+8(FP), R2
	MOVD stride+16(FP), R3
	MOVD n+24(FP), R8
	MOVD out+32(FP), R9
	LSL  $2, R3, R3                // R3 = plane stride in bytes

	PCALIGN $16
nstep:
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16
	VEOR V18.B16, V18.B16, V18.B16
	VEOR V19.B16, V19.B16, V19.B16
	VEOR V20.B16, V20.B16, V20.B16
	VEOR V21.B16, V21.B16, V21.B16
	VEOR V22.B16, V22.B16, V22.B16
	VEOR V23.B16, V23.B16, V23.B16
	MOVD R1, R7                    // R7 = &plane j[the step]
	SUB  $1, R2, R14               // R14 = planes left past the pair at R7
npair:
	CMP  $0, R14
	BLT  nsum                      // dim even: every plane taken
	BEQ  nlast
	VLD1  (R7), [V0.S4, V1.S4, V2.S4, V3.S4]
	ADD   R3, R7
	VLD1  (R7), [V4.S4, V5.S4, V6.S4, V7.S4]
	ADD   R3, R7
	VFMLA V0.S4, V0.S4, V16.S4
	VFMLA V1.S4, V1.S4, V17.S4
	VFMLA V2.S4, V2.S4, V18.S4
	VFMLA V3.S4, V3.S4, V19.S4
	VFMLA V4.S4, V4.S4, V20.S4
	VFMLA V5.S4, V5.S4, V21.S4
	VFMLA V6.S4, V6.S4, V22.S4
	VFMLA V7.S4, V7.S4, V23.S4
	SUB   $2, R14
	B     npair
nlast:
	VLD1  (R7), [V0.S4, V1.S4, V2.S4, V3.S4] // the last plane of an odd dim
	VFMLA V0.S4, V0.S4, V16.S4
	VFMLA V1.S4, V1.S4, V17.S4
	VFMLA V2.S4, V2.S4, V18.S4
	VFMLA V3.S4, V3.S4, V19.S4
nsum:
	WORD $0x4E34D610 // FADD  V16.4S, V16.4S, V20.4S
	WORD $0x4E35D631 // FADD  V17.4S, V17.4S, V21.4S
	WORD $0x4E36D652 // FADD  V18.4S, V18.4S, V22.4S
	WORD $0x4E37D673 // FADD  V19.4S, V19.4S, V23.4S
	VST1 [V16.S4, V17.S4, V18.S4, V19.S4], (R9)
	ADD  $64, R1                   // next sixteen centroids
	ADD  $64, R9
	SUB  $16, R8
	CMP  $16, R8
	BGE  nstep
	CBZ  R8, ndone
	SUB  $16, R8, R7               // 1..15 left: step back to centroid n-16
	LSL  $2, R7, R7
	ADD  R7, R1
	ADD  R7, R9
	MOVD $16, R8
	B    nstep
ndone:
	RET

// func screenSelectAsm(out *float32, n, nq int, res *screenResult)
//
// The selection stage of the screen, as on amd64: from each slot's
// minimum m (res.lim on entry) and ‖q‖², the limit L = a·m + b·qq + c0
// of res.bound in float64, rounded up to float32 through
// L + |L|·2⁻²³ + 2⁻¹⁴⁹ (+Inf unless m and qq are at most 1e30) into
// res.lim, and for each of the nq queries the candidate bitmap res.cand:
// bit i is !(out[t*256+i] > L), four rows per FCMGT, weighted {1,2,4,8}
// and summed across lanes.
TEXT ·screenSelectAsm(SB), NOSPLIT, $0-32
	MOVD res+24(FP), R11

	// Limits.
	MOVD  $0x3E80000000000000, R7  // 2⁻²³
	FMOVD R7, F8
	MOVD  $0x36A0000000000000, R7  // 2⁻¹⁴⁹
	FMOVD R7, F9
	MOVW  $0x7149F2CA, R7          // 1e30
	FMOVS R7, F10
	MOVW  $0x7F800000, R7          // +Inf
	FMOVS R7, F11
	FMOVD 0(R11), F12              // a
	FMOVD 8(R11), F13              // b
	FMOVD 16(R11), F14             // c0
	ADD   $24, R11, R12
	MOVD  $4, R7
limslot:
	FMOVS  (R12), F0               // m
	FMOVS  16(R12), F1             // qq
	FCVTSD F0, F3
	FCVTSD F1, F4
	FMULD  F13, F4, F2             // b·qq
	FADDD  F14, F2, F2             // + c0
	FMULD  F12, F3, F3             // a·m
	FADDD  F3, F2, F2              // L
	FABSD  F2, F3
	FMULD  F8, F3, F3
	FADDD  F3, F2, F2              // + |L|·2⁻²³
	FADDD  F9, F2, F2              // + 2⁻¹⁴⁹
	FCVTDS F2, F2
	FCMPS  F10, F0                 // LS iff m ≤ 1e30 (not on NaN)
	FCSELS LS, F2, F11, F2
	FCMPS  F10, F1
	FCSELS LS, F2, F11, F2
	FMOVS  F2, (R12)
	ADD    $4, R12
	SUB    $1, R7
	CBNZ   R7, limslot

	// Candidate bitmaps, four rows per compare.
	MOVD $0x0000000200000001, R7
	VMOV R7, V6.D[0]
	MOVD $0x0000000800000004, R7
	VMOV R7, V6.D[1]               // lane weights {1, 2, 4, 8}
	MOVD out+0(FP), R9
	ADD  $24, R11, R12             // &res.lim[t]
	ADD  $56, R11, R14             // &res.cand[t]
	MOVD nq+16(FP), R13
selslot:
	VLD1R.P 4(R12), [V5.S4]        // lim[t] in every lane
	MOVD R9, R19
	MOVD n+8(FP), R8
	MOVD ZR, R20                   // the bitmap word being filled
	MOVD ZR, R21                   // its next bit
	MOVD R14, R22
selrow:
	VLD1.P 16(R19), [V0.S4]
	WORD $0x6EA5E401 // FCMGT V1.4S, V0.4S, V5.4S   all-ones where out > lim (not on NaN)
	VAND  V6.B16, V1.B16, V1.B16
	VADDV V1.S4, V1
	VMOV  V1.S[0], R7
	EOR   $15, R7, R7              // the candidates among the four rows
	LSL   R21, R7, R7
	ORR   R7, R20, R20
	ADD   $4, R21
	CMP   $64, R21
	BNE   selnext
	MOVD.P R20, 8(R22)
	MOVD  ZR, R20
	MOVD  ZR, R21
selnext:
	SUBS $4, R8, R8
	BGT  selrow
	CBZ  R21, selslotdone
	MOVD R20, (R22)
selslotdone:
	ADD  $1024, R9
	ADD  $32, R14
	SUB  $1, R13
	CBNZ R13, selslot
	RET
