//go:build amd64 && !noasm

#include "textflag.h"

// Loop placement. Every routine pins the head of its outermost vector
// loop with PCALIGN $64, so where its loops sit relative to the 64-byte
// windows of the decoded-uop cache is a property of this file and not of
// what the linker happened to place before the function. (32 was not
// enough: planarAsm's loop head at 32 mod 64 instead of 0 once cost the
// codebook argmin 20–30 % on a Sapphire Rapids host, in whichever
// binary drew it.) An inner loop head is a fixed
// distance past an aligned outer one, so it is pinned too, without
// padding that the outer loop would execute on every pass; the scalar
// tails run at most seven latency-bound iterations and are left alone.

// func pairAsm(q, v *float32, n int) float64
//
// Squared L2 distance between two n-length float32 vectors, computed in
// float64 per the summation order specified in kernel.go: two 4-lane
// double accumulators (Y0 holds partial sums p0..p3, Y1 holds p4..p7)
// fed 8 elements per iteration, reduced with the fixed tree
// ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)), then a sequential scalar tail
// for n mod 8 elements. Every arithmetic step is a single IEEE-754
// double rounding (convert, subtract, multiply, add — no FMA), and a
// NaN result is canonicalized to the math.NaN() bit pattern, matching
// sqDistGeneric bit for bit on every input.
TEXT ·pairAsm(SB), NOSPLIT, $0-32
	MOVQ q+0(FP), SI
	MOVQ v+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0          // acc lanes p0..p3
	VXORPD Y1, Y1, Y1          // acc lanes p4..p7
	MOVQ CX, DX
	ANDQ $-8, DX               // DX = n &^ 7, the blocked prefix
	XORQ AX, AX                // AX = element index j
	CMPQ DX, $0
	JE   reduce

	PCALIGN $64
blocked:
	// Lanes j..j+3 into Y0.
	VCVTPS2PD (SI)(AX*4), Y2   // 4 × float32 -> 4 × float64
	VCVTPS2PD (DI)(AX*4), Y3
	VSUBPD Y3, Y2, Y2          // d = q - v
	VMULPD Y2, Y2, Y2          // d*d
	VADDPD Y2, Y0, Y0          // p[k] += d*d
	// Lanes j+4..j+7 into Y1.
	VCVTPS2PD 16(SI)(AX*4), Y4
	VCVTPS2PD 16(DI)(AX*4), Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y4, Y4, Y4
	VADDPD Y4, Y1, Y1
	ADDQ $8, AX
	CMPQ AX, DX
	JL   blocked

reduce:
	// s = ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7))
	VADDPD Y1, Y0, Y0          // t[k] = p[k] + p[k+4]
	VEXTRACTF128 $1, Y0, X1    // X1 = (t2, t3)
	VADDPD X1, X0, X0          // X0 = (t0+t2, t1+t3)
	VUNPCKHPD X0, X0, X1       // X1 lane0 = t1+t3
	VADDSD X1, X0, X0          // s in X0 lane0

tail:
	CMPQ AX, CX
	JGE  done
	VCVTSS2SD (SI)(AX*4), X2, X2
	VCVTSS2SD (DI)(AX*4), X3, X3
	VSUBSD X3, X2, X2
	VMULSD X2, X2, X2
	VADDSD X2, X0, X0
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	UCOMISD X0, X0             // PF set iff s is NaN
	JPC  store
	MOVQ $0x7FF8000000000001, AX
	MOVQ AX, X0                // canonical math.NaN() bits
store:
	MOVSD X0, ret+24(FP)
	RET

// func rowsBlockedAsm(q, vecs *float32, dim, n int, out *float64)
//
// out[i] = squared L2 distance between q and row i of vecs, for n
// contiguous dim-length rows (dim ≥ 1), each computed in float64 per the
// summation order specified in kernel.go: two 4-lane double accumulators
// (Y0 holds partial sums p0..p3, Y1 holds p4..p7) fed 8 elements per
// iteration, reduced with the fixed tree
// ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)), then a sequential scalar tail
// for dim mod 8 elements. Every arithmetic step is a single IEEE-754
// double rounding (convert, subtract, multiply, add — no FMA), and a
// NaN result is canonicalized to the math.NaN() bit pattern, matching
// sqDistGeneric bit for bit on every input. The row loop stays in here:
// one call scores a whole block, and the next row's loads overlap this
// row's reduction.
TEXT ·rowsBlockedAsm(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), SI
	MOVQ vecs+8(FP), DI
	MOVQ dim+16(FP), CX
	MOVQ n+24(FP), BX
	MOVQ out+32(FP), R8
	MOVQ CX, DX
	ANDQ $-8, DX               // DX = dim &^ 7, the blocked prefix
	LEAQ (CX*4), R9            // R9 = row stride in bytes
	MOVQ $0x7FF8000000000001, R10 // canonical math.NaN() bits
	TESTQ BX, BX
	JLE  rowsdone

	PCALIGN $64
row:
	VXORPD Y0, Y0, Y0          // acc lanes p0..p3
	VXORPD Y1, Y1, Y1          // acc lanes p4..p7
	XORQ AX, AX                // AX = element index j
	CMPQ DX, $0
	JE   reduce

blocked:
	// Lanes j..j+3 into Y0.
	VCVTPS2PD (SI)(AX*4), Y2   // 4 × float32 -> 4 × float64
	VCVTPS2PD (DI)(AX*4), Y3
	VSUBPD Y3, Y2, Y2          // d = q - v
	VMULPD Y2, Y2, Y2          // d*d
	VADDPD Y2, Y0, Y0          // p[k] += d*d
	// Lanes j+4..j+7 into Y1.
	VCVTPS2PD 16(SI)(AX*4), Y4
	VCVTPS2PD 16(DI)(AX*4), Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y4, Y4, Y4
	VADDPD Y4, Y1, Y1
	ADDQ $8, AX
	CMPQ AX, DX
	JL   blocked

reduce:
	// s = ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7))
	VADDPD Y1, Y0, Y0          // t[k] = p[k] + p[k+4]
	VEXTRACTF128 $1, Y0, X1    // X1 = (t2, t3)
	VADDPD X1, X0, X0          // X0 = (t0+t2, t1+t3)
	VUNPCKHPD X0, X0, X1       // X1 lane0 = t1+t3
	VADDSD X1, X0, X0          // s in X0 lane0

tail:
	CMPQ AX, CX
	JGE  canon
	VCVTSS2SD (SI)(AX*4), X2, X2
	VCVTSS2SD (DI)(AX*4), X3, X3
	VSUBSD X3, X2, X2
	VMULSD X2, X2, X2
	VADDSD X2, X0, X0
	INCQ AX
	JMP  tail

canon:
	VUCOMISD X0, X0            // PF set iff s is NaN
	JPC  store
	VMOVQ R10, X0
store:
	VMOVSD X0, (R8)
	ADDQ $8, R8
	ADDQ R9, DI                // next row
	DECQ BX
	JNZ  row

rowsdone:
	VZEROUPPER
	RET

// func planarAsm(qd *float64, planes *float32, dim, stride, n int, out *float64)
//
// A planar (dimension-major) centroid table, 1 ≤ dim ≤ 7 planes stride
// floats apart, where the specified order is s = (((t0+t1)+t2)+…): four
// centroids per step, ONE CENTROID PER DOUBLE LANE of Y0, so the lanes
// never meet and each is summed in ascending j exactly as the scalar
// tail of rowsBlockedAsm would. qd is the query already widened to
// float64 (dim doubles); n must be a positive multiple of 4. Coordinate
// j of the four centroids is one 16-byte load widened by VCVTPS2PD,
// subtracted from the broadcast qd[j], squared and added (no FMA, no
// shuffle). The accumulator starts at +0: +0 + t0 is t0 exactly, a term
// is never -0. The four sums are stored to out, NaN lanes canonicalized.
TEXT ·planarAsm(SB), NOSPLIT, $0-48
	MOVQ qd+0(FP), SI
	MOVQ planes+8(FP), DI
	MOVQ dim+16(FP), CX
	MOVQ stride+24(FP), R9
	MOVQ n+32(FP), BX
	MOVQ out+40(FP), R8
	SHLQ $2, R9                // R9 = plane stride in bytes
	MOVQ $0x7FF8000000000001, AX
	VMOVQ AX, X7
	VBROADCASTSD X7, Y7        // canonical math.NaN() bits, every lane

	PCALIGN $64
step:
	VXORPD Y0, Y0, Y0          // lane c = sum of centroid c
	XORQ AX, AX                // AX = plane index j
	MOVQ DI, R10               // R10 = &plane j[centroid 0 of the step]
plane:
	VCVTPS2PD (R10), Y1        // coordinate j of centroids 0..3
	VBROADCASTSD (SI)(AX*8), Y2
	VSUBPD Y1, Y2, Y1          // d = q[j] - v[j]
	VMULPD Y1, Y1, Y1          // d*d
	VADDPD Y1, Y0, Y0          // s += d*d
	ADDQ R9, R10
	INCQ AX
	CMPQ AX, CX
	JL   plane

	VCMPPD $3, Y0, Y0, Y3      // all-ones where the lane is NaN
	VBLENDVPD Y3, Y7, Y0, Y0
	VMOVUPD Y0, (R8)
	ADDQ $32, R8
	ADDQ $16, DI               // next four centroids
	SUBQ $4, BX
	JG   step
	VZEROUPPER
	RET

// func accumulateAsm(sums *float64, v *float32, n int)
//
// sums[j] = float64(v[j]) + sums[j] for j < n ≥ 1: eight elements per
// step, widened by VCVTPS2PD and added by VADDPD with the widened value
// as the first source — the operand order of the scalar loop's compiled
// ADDSD, so where both are NaN the same payload survives — then a
// scalar tail. Each element is one double addition, so the bits are
// the scalar loop's whatever the grouping.
TEXT ·accumulateAsm(SB), NOSPLIT, $0-24
	MOVQ sums+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	ANDQ $-8, DX               // DX = n &^ 7
	XORQ AX, AX                // AX = element index j
	CMPQ DX, $0
	JE   acctail

	PCALIGN $64
accblk:
	VCVTPS2PD (SI)(AX*4), Y0
	VCVTPS2PD 16(SI)(AX*4), Y1
	VADDPD (DI)(AX*8), Y0, Y0
	VADDPD 32(DI)(AX*8), Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   accblk

acctail:
	CMPQ AX, CX
	JGE  accdone
	VCVTSS2SD (SI)(AX*4), X0, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  acctail

accdone:
	VZEROUPPER
	RET

// func planarNormsAsm(planes *float32, dim, stride, n int, out *float32)
//
// The squared norms ‖c‖² of n ≥ 32 centroids (n ≤ 256) of a planar
// table, dim ≥ 1 planes stride floats apart, into out[0..n), in float32
// for the dot-form tile of planarScreenAsm: thirty-two centroids per
// step, the even planes fused into Y0..Y3 and the odd ones into Y4..Y7 —
// eight independent chains — added at the end, so a term is at most
// ⌈dim/2⌉ + 1 roundings deep. When n is not a multiple of 32 the last
// step is re-anchored at centroid n-32 and rewrites up to thirty-one
// norms with the same values.
TEXT ·planarNormsAsm(SB), NOSPLIT, $0-40
	MOVQ planes+0(FP), DI
	MOVQ dim+8(FP), CX
	MOVQ stride+16(FP), R9
	MOVQ n+24(FP), BX
	MOVQ out+32(FP), R8
	SHLQ $2, R9                // R9 = plane stride in bytes
	LEAQ (R9*2), R10           // R10 = two planes

	PCALIGN $64
nstep:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ DI, DX                // DX = &plane j[the step]
	LEAQ -1(CX), AX            // AX = planes left past the pair at DX
	JMP  npaircheck
npair:
	VMOVUPS (DX), Y8
	VFMADD231PS Y8, Y8, Y0
	VMOVUPS 32(DX), Y9
	VFMADD231PS Y9, Y9, Y1
	VMOVUPS 64(DX), Y10
	VFMADD231PS Y10, Y10, Y2
	VMOVUPS 96(DX), Y11
	VFMADD231PS Y11, Y11, Y3
	VMOVUPS (DX)(R9*1), Y8
	VFMADD231PS Y8, Y8, Y4
	VMOVUPS 32(DX)(R9*1), Y9
	VFMADD231PS Y9, Y9, Y5
	VMOVUPS 64(DX)(R9*1), Y10
	VFMADD231PS Y10, Y10, Y6
	VMOVUPS 96(DX)(R9*1), Y11
	VFMADD231PS Y11, Y11, Y7
	ADDQ R10, DX
	SUBQ $2, AX
npaircheck:
	CMPQ AX, $0
	JG   npair
	JL   nsum                  // dim even: every plane taken
	VMOVUPS (DX), Y8           // the last plane of an odd dim
	VFMADD231PS Y8, Y8, Y0
	VMOVUPS 32(DX), Y9
	VFMADD231PS Y9, Y9, Y1
	VMOVUPS 64(DX), Y10
	VFMADD231PS Y10, Y10, Y2
	VMOVUPS 96(DX), Y11
	VFMADD231PS Y11, Y11, Y3
nsum:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, 64(R8)
	VMOVUPS Y3, 96(R8)
	ADDQ $128, DI              // next thirty-two centroids
	ADDQ $128, R8
	SUBQ $32, BX
	CMPQ BX, $32
	JGE  nstep
	TESTQ BX, BX
	JLE  ndone
	SUBQ $32, BX               // 1..31 left: step back to centroid n-32
	LEAQ (DI)(BX*4), DI
	LEAQ (R8)(BX*4), R8
	MOVQ $32, BX
	JMP  nstep
ndone:
	VZEROUPPER
	RET

// func planarScreenAsm(qs, planes, norms *float32, dim, stride, n, nq int, out *float32, res *screenResult)
//
// The screen of the screened argmin (kernel.go): the float32 values
// s = ‖c‖² − 2·q·c of nq (1…4) queries of dim ≥ 1 floats, concatenated
// at qs, against n ≥ 32 centroids, dim planes stride floats apart
// (n ≤ 256); query slot t's value for centroid i goes to out[t*256+i],
// slots past nq reading the last query again. ONE CENTROID PER FLOAT
// LANE, coordinate j of eight neighbours one load from plane j. ‖q‖²
// (res.qq) is summed in 8-float blocks, the dim mod 8
// leftover lanes masked in (Y15), three reduction levels — ⌈dim/8⌉ + 3
// roundings deep. Then one of two register tiles:
//
//   - nq ≥ 2: four queries × 24 centroids in DOT FORM: the products of
//     coordinate j with each slot's broadcast q[j] fused into that slot's
//     dots (Y0..Y11), in ascending j — twelve independent FMA chains, no
//     horizontal step — then per slot s = ‖c‖² − 2·dot, one rounding
//     (VFNMADD213PS), with the 24 ‖c‖² read from norms (planarNormsAsm's).
//     Each slot's running minimum lives in the frame, at R14 + 32·t —
//     32-byte aligned: at SP, which Go aligns to 8 only, the store and
//     reload each step crossed a cache line in some frames, missed store
//     forwarding, and cost a codebook's short steps (4 planes) half their
//     speed. VMINPS takes the running value as the second source, so a
//     NaN value leaves it as it was.
//   - nq = 1: one query × thirty-two centroids, s = Σ c·(c − 2·q) — a
//     subtraction and an FMA per plane, the port mix of one query — with
//     2·q[j] broadcast and doubled (exact) per plane; norms is not read.
//
// Either way a term is at most dim + 1 roundings deep. When n is not a
// multiple of the step the last step is re-anchored at centroid n-24
// (n-32) and rewrites up to 23 (31) values — a tile's last step takes
// sixteen centroids instead when no more than sixteen are left (the 2
// past 48 of a 50-list quantizer, the 14 past 144 of 158). The minima of the slots
// (Y10, Y11, Y13, Y14, eight lanes each — a single step's four vectors
// each keep one, folded into Y10 at sdone — folded at the end) go to
// res.lim, for screenSelectAsm.
TEXT ·planarScreenAsm(SB), NOSPLIT, $160-72
	MOVQ qs+0(FP), SI
	MOVQ planes+8(FP), DI
	MOVQ norms+16(FP), R15
	MOVQ dim+24(FP), CX
	MOVQ stride+32(FP), R9
	MOVQ n+40(FP), BX
	MOVQ nq+48(FP), R13
	MOVQ out+56(FP), R8
	SHLQ $2, R9                // R9 = plane stride in bytes
	LEAQ (CX*4), R14           // R14 = query stride in bytes

	// Query pointers of slots 1..3, clamped to the last query.
	DECQ R13                   // R13 = nq-1
	MOVQ $1, R10
	CMPQ R13, R10
	CMOVQLT R13, R10
	IMULQ R14, R10
	ADDQ SI, R10
	MOVQ $2, R11
	CMPQ R13, R11
	CMOVQLT R13, R11
	IMULQ R14, R11
	ADDQ SI, R11
	MOVQ $3, R12
	CMPQ R13, R12
	CMOVQLT R13, R12
	IMULQ R14, R12
	ADDQ SI, R12

	LEAQ 31(SP), R14
	ANDQ $-32, R14             // R14 = the tile's four running minima

	// ‖q‖² of the four slots.
	MOVQ CX, AX
	ANDQ $7, AX
	NEGQ AX
	LEAQ screenMask<>(SB), DX
	VMOVDQU 32(DX)(AX*4), Y15  // lanes below dim mod 8 all-ones
	MOVQ CX, DX
	ANDQ $-8, DX               // DX = dim &^ 7
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	CMPQ DX, $0
	JE   qqtail
qqblk:
	VMOVUPS (SI)(AX*4), Y4
	VFMADD231PS Y4, Y4, Y0
	VMOVUPS (R10)(AX*4), Y5
	VFMADD231PS Y5, Y5, Y1
	VMOVUPS (R11)(AX*4), Y6
	VFMADD231PS Y6, Y6, Y2
	VMOVUPS (R12)(AX*4), Y7
	VFMADD231PS Y7, Y7, Y3
	ADDQ $8, AX
	CMPQ AX, DX
	JL   qqblk
qqtail:
	CMPQ AX, CX
	JGE  qqred
	VMASKMOVPS (SI)(AX*4), Y15, Y4
	VFMADD231PS Y4, Y4, Y0
	VMASKMOVPS (R10)(AX*4), Y15, Y5
	VFMADD231PS Y5, Y5, Y1
	VMASKMOVPS (R11)(AX*4), Y15, Y6
	VFMADD231PS Y6, Y6, Y2
	VMASKMOVPS (R12)(AX*4), Y15, Y7
	VFMADD231PS Y7, Y7, Y3
qqred:
	VHADDPS Y1, Y0, Y0
	VHADDPS Y3, Y2, Y2
	VHADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	MOVQ res+64(FP), AX
	VMOVUPS X0, 40(AX)         // res.qq

	MOVL $0x7F800000, AX
	VMOVD AX, X10
	VPBROADCASTD X10, Y10      // +Inf
	CMPQ R13, $0
	JEQ  single
	VMOVUPS Y10, (R14)          // running minima of slots 0..3
	VMOVUPS Y10, 32(R14)
	VMOVUPS Y10, 64(R14)
	VMOVUPS Y10, 96(R14)

	PCALIGN $64
group:
	VXORPS Y0, Y0, Y0          // q·c, slot 0, centroids 0..7 of the step
	VXORPS Y1, Y1, Y1          // slot 0, 8..15
	VXORPS Y2, Y2, Y2          // slot 0, 16..23
	VXORPS Y3, Y3, Y3          // slot 1
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6          // slot 2
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9          // slot 3
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	MOVQ DI, DX                // DX = &plane j[the step]
	XORQ AX, AX                // AX = plane index j
plane:
	VMOVUPS (DX), Y12
	VMOVUPS 32(DX), Y13
	VMOVUPS 64(DX), Y14
	VBROADCASTSS (SI)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y0
	VFMADD231PS Y15, Y13, Y1
	VFMADD231PS Y15, Y14, Y2
	VBROADCASTSS (R10)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y3
	VFMADD231PS Y15, Y13, Y4
	VFMADD231PS Y15, Y14, Y5
	VBROADCASTSS (R11)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y6
	VFMADD231PS Y15, Y13, Y7
	VFMADD231PS Y15, Y14, Y8
	VBROADCASTSS (R12)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y9
	VFMADD231PS Y15, Y13, Y10
	VFMADD231PS Y15, Y14, Y11
	ADDQ R9, DX
	INCQ AX
	CMPQ AX, CX
	JL   plane

	VBROADCASTSS screenTwo<>(SB), Y15
	VFNMADD213PS (R15), Y15, Y0 // s = ‖c‖² − 2·q·c, one rounding
	VFNMADD213PS 32(R15), Y15, Y1
	VFNMADD213PS 64(R15), Y15, Y2
	VFNMADD213PS (R15), Y15, Y3
	VFNMADD213PS 32(R15), Y15, Y4
	VFNMADD213PS 64(R15), Y15, Y5
	VFNMADD213PS (R15), Y15, Y6
	VFNMADD213PS 32(R15), Y15, Y7
	VFNMADD213PS 64(R15), Y15, Y8
	VFNMADD213PS (R15), Y15, Y9
	VFNMADD213PS 32(R15), Y15, Y10
	VFNMADD213PS 64(R15), Y15, Y11
	VMOVUPS Y0, (R8)           // query t's values are 1 KiB apart
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, 64(R8)
	VMOVUPS Y3, 1024(R8)
	VMOVUPS Y4, 1056(R8)
	VMOVUPS Y5, 1088(R8)
	VMOVUPS Y6, 2048(R8)
	VMOVUPS Y7, 2080(R8)
	VMOVUPS Y8, 2112(R8)
	VMOVUPS Y9, 3072(R8)
	VMOVUPS Y10, 3104(R8)
	VMOVUPS Y11, 3136(R8)
	VMINPS Y1, Y0, Y0          // each slot's 24 values to eight lanes,
	VMINPS Y2, Y0, Y0          // then into its running minimum (a NaN
	VMINPS (R14), Y0, Y0        // lane keeps the minimum it met)
	VMOVUPS Y0, (R14)
	VMINPS Y4, Y3, Y3
	VMINPS Y5, Y3, Y3
	VMINPS 32(R14), Y3, Y3
	VMOVUPS Y3, 32(R14)
	VMINPS Y7, Y6, Y6
	VMINPS Y8, Y6, Y6
	VMINPS 64(R14), Y6, Y6
	VMOVUPS Y6, 64(R14)
	VMINPS Y10, Y9, Y9
	VMINPS Y11, Y9, Y9
	VMINPS 96(R14), Y9, Y9
	VMOVUPS Y9, 96(R14)
	ADDQ $96, DI               // next 24 centroids
	ADDQ $96, R8
	ADDQ $96, R15
	SUBQ $24, BX
	CMPQ BX, $24
	JGE  group
	TESTQ BX, BX
	JLE  tiledone
	CMPQ BX, $16
	JLE  last16
	SUBQ $24, BX               // 17..23 left: step back to centroid n-24
	LEAQ (DI)(BX*4), DI
	LEAQ (R8)(BX*4), R8
	LEAQ (R15)(BX*4), R15
	MOVQ $24, BX
	JMP  group

last16:
	// 1..16 left: one step of sixteen, back at centroid n-16 — eight
	// chains, two thirds of a 24-step's work.
	SUBQ $16, BX
	LEAQ (DI)(BX*4), DI
	LEAQ (R8)(BX*4), R8
	LEAQ (R15)(BX*4), R15
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ DI, DX
	XORQ AX, AX
plane16:
	VMOVUPS (DX), Y12
	VMOVUPS 32(DX), Y13
	VBROADCASTSS (SI)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y0
	VFMADD231PS Y15, Y13, Y1
	VBROADCASTSS (R10)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y2
	VFMADD231PS Y15, Y13, Y3
	VBROADCASTSS (R11)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y4
	VFMADD231PS Y15, Y13, Y5
	VBROADCASTSS (R12)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y6
	VFMADD231PS Y15, Y13, Y7
	ADDQ R9, DX
	INCQ AX
	CMPQ AX, CX
	JL   plane16

	VBROADCASTSS screenTwo<>(SB), Y15
	VFNMADD213PS (R15), Y15, Y0
	VFNMADD213PS 32(R15), Y15, Y1
	VFNMADD213PS (R15), Y15, Y2
	VFNMADD213PS 32(R15), Y15, Y3
	VFNMADD213PS (R15), Y15, Y4
	VFNMADD213PS 32(R15), Y15, Y5
	VFNMADD213PS (R15), Y15, Y6
	VFNMADD213PS 32(R15), Y15, Y7
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, 1024(R8)
	VMOVUPS Y3, 1056(R8)
	VMOVUPS Y4, 2048(R8)
	VMOVUPS Y5, 2080(R8)
	VMOVUPS Y6, 3072(R8)
	VMOVUPS Y7, 3104(R8)
	VMINPS Y1, Y0, Y0
	VMINPS (R14), Y0, Y0
	VMOVUPS Y0, (R14)
	VMINPS Y3, Y2, Y2
	VMINPS 32(R14), Y2, Y2
	VMOVUPS Y2, 32(R14)
	VMINPS Y5, Y4, Y4
	VMINPS 64(R14), Y4, Y4
	VMOVUPS Y4, 64(R14)
	VMINPS Y7, Y6, Y6
	VMINPS 96(R14), Y6, Y6
	VMOVUPS Y6, 96(R14)
tiledone:
	VMOVUPS (R14), Y10
	VMOVUPS 32(R14), Y11
	VMOVUPS 64(R14), Y13
	VMOVUPS 96(R14), Y14
	JMP  fold

single:
	VMOVAPS Y10, Y11           // running minima of the four chains: +Inf
	VMOVAPS Y10, Y13
	VMOVAPS Y10, Y14

	PCALIGN $64
sgroup:
	VXORPS Y1, Y1, Y1          // s of centroids 0..7 of the step
	VXORPS Y2, Y2, Y2          // 8..15
	VXORPS Y3, Y3, Y3          // 16..23
	VXORPS Y4, Y4, Y4          // 24..31
	MOVQ DI, DX
	XORQ AX, AX
splane:
	VBROADCASTSS (SI)(AX*4), Y0
	VADDPS Y0, Y0, Y0          // 2·q[j], exact
	VMOVUPS (DX), Y5
	VMOVUPS 32(DX), Y6
	VMOVUPS 64(DX), Y7
	VMOVUPS 96(DX), Y8
	VSUBPS Y0, Y5, Y9          // c − 2·q
	VFMADD231PS Y9, Y5, Y1     // s += c·(c − 2·q)
	VSUBPS Y0, Y6, Y9
	VFMADD231PS Y9, Y6, Y2
	VSUBPS Y0, Y7, Y9
	VFMADD231PS Y9, Y7, Y3
	VSUBPS Y0, Y8, Y9
	VFMADD231PS Y9, Y8, Y4
	ADDQ R9, DX
	INCQ AX
	CMPQ AX, CX
	JL   splane
	VMOVUPS Y1, (R8)
	VMOVUPS Y2, 32(R8)
	VMOVUPS Y3, 64(R8)
	VMOVUPS Y4, 96(R8)
	VMINPS Y1, Y10, Y10
	VMINPS Y2, Y11, Y11
	VMINPS Y3, Y13, Y13
	VMINPS Y4, Y14, Y14
	ADDQ $128, DI              // next thirty-two centroids
	ADDQ $128, R8
	SUBQ $32, BX
	CMPQ BX, $32
	JGE  sgroup
	TESTQ BX, BX
	JLE  sdone
	SUBQ $32, BX               // 1..31 left: step back to centroid n-32
	LEAQ (DI)(BX*4), DI
	LEAQ (R8)(BX*4), R8
	MOVQ $32, BX
	JMP  sgroup
sdone:
	VMINPS Y11, Y10, Y10       // the four chains of slot 0 into Y10
	VMINPS Y14, Y13, Y13
	VMINPS Y13, Y10, Y10

fold:
	// Each slot's eight lanes to four, then the four slots side by side:
	// X13 lane t = the minimum of slot t.
	VEXTRACTF128 $1, Y10, X0
	VMINPS X0, X10, X10
	VEXTRACTF128 $1, Y11, X0
	VMINPS X0, X11, X11
	VEXTRACTF128 $1, Y13, X0
	VMINPS X0, X13, X13
	VEXTRACTF128 $1, Y14, X0
	VMINPS X0, X14, X14
	VUNPCKLPS X11, X10, X0     // {a0, b0, a1, b1}
	VUNPCKHPS X11, X10, X1     // {a2, b2, a3, b3}
	VMINPS X1, X0, X0          // {a02, b02, a13, b13}
	VUNPCKLPS X14, X13, X2
	VUNPCKHPS X14, X13, X3
	VMINPS X3, X2, X2          // {c02, d02, c13, d13}
	VMOVLHPS X2, X0, X1        // {a02, b02, c02, d02}
	VMOVHLPS X0, X2, X3        // {a13, b13, c13, d13}
	VMINPS X3, X1, X13
	MOVQ res+64(FP), AX
	VMOVUPS X13, 24(AX)        // res.lim: the minima
	VZEROUPPER
	RET

// func screenSelectAsm(out *float32, n, nq int, res *screenResult)
//
// The selection stage of the screen: on entry res.lim[t] holds the
// smallest value m of query slot t, as the screening routine kept it,
// and out[t*256+i] the values themselves. First each slot's limit,
// L = a·m + b·qq + c0 of res.bound in float64 (m and qq widen exactly),
// rounded UP to float32: L + |L|·2⁻²³ + 2⁻¹⁴⁹ rounds to nearest at or
// above L. A slot whose m or qq is not at most 1e30 (NaN is not) gets
// +Inf: every row a candidate. Then, for each of the nq queries, the
// candidate bitmap res.cand: bit i is !(lim[t] < out[t*256+i]), true
// for a NaN, eight rows per compare.
TEXT ·screenSelectAsm(SB), NOSPLIT, $0-32
	MOVQ res+24(FP), AX
	VMOVUPS 24(AX), X13        // m
	VCVTPS2PD X13, Y0
	VCVTPS2PD 40(AX), Y1       // qq
	VBROADCASTSD 16(AX), Y2    // c0
	VBROADCASTSD 8(AX), Y3     // b
	VFMADD231PD Y3, Y1, Y2
	VBROADCASTSD 0(AX), Y3     // a
	VFMADD231PD Y3, Y0, Y2     // L
	VPCMPEQQ Y3, Y3, Y3
	VPSRLQ $1, Y3, Y3
	VANDPD Y3, Y2, Y3          // |L|
	MOVQ $0x3E80000000000000, DX // 2⁻²³
	VMOVQ DX, X4
	VBROADCASTSD X4, Y4
	VFMADD231PD Y4, Y3, Y2
	MOVQ $0x36A0000000000000, DX // 2⁻¹⁴⁹
	VMOVQ DX, X4
	VBROADCASTSD X4, Y4
	VADDPD Y4, Y2, Y2
	VCVTPD2PSY Y2, X2
	MOVL $0x7149F2CA, DX       // 1e30
	VMOVD DX, X5
	VBROADCASTSS X5, X5
	VCMPPS $2, X5, X13, X6     // m ≤ 1e30
	VMOVUPS 40(AX), X7
	VCMPPS $2, X5, X7, X7      // qq ≤ 1e30
	VANDPS X7, X6, X6
	MOVL $0x7F800000, DX
	VMOVD DX, X5
	VBROADCASTSS X5, X5
	VBLENDVPS X6, X2, X5, X2   // safe ? L : +Inf
	VMOVUPS X2, 24(AX)         // res.lim

	// Candidate bitmaps, one 64-bit word per 64 rows (rows at and past n
	// read values of the slot's scratch that no row owns: their bits are
	// unspecified). Per 32 rows: four compares, their all-ones masks
	// packed to bytes (VPACKSSDW, VPACKSSWB, in 128-bit lanes) and put
	// back in row order (VPERMD by screenPerm), one VPMOVMSKB.
	MOVQ out+0(FP), SI
	LEAQ 56(AX), DI            // res.cand
	MOVQ n+8(FP), BX
	MOVQ nq+16(FP), R13
	VMOVDQU screenPerm<>(SB), Y7
	XORQ R10, R10              // slot t
selslot:
	VBROADCASTSS 24(AX)(R10*4), Y0
	XORQ CX, CX                // row i
	XORQ R11, R11              // bitmap word i/64
selrow:
	VCMPPS $0x15, (SI)(CX*4), Y0, Y1
	VCMPPS $0x15, 32(SI)(CX*4), Y0, Y2
	VCMPPS $0x15, 64(SI)(CX*4), Y0, Y3
	VCMPPS $0x15, 96(SI)(CX*4), Y0, Y4
	VPACKSSDW Y2, Y1, Y1
	VPACKSSDW Y4, Y3, Y3
	VPACKSSWB Y3, Y1, Y1
	VPERMD Y1, Y7, Y1
	VPMOVMSKB Y1, DX
	VCMPPS $0x15, 128(SI)(CX*4), Y0, Y1
	VCMPPS $0x15, 160(SI)(CX*4), Y0, Y2
	VCMPPS $0x15, 192(SI)(CX*4), Y0, Y3
	VCMPPS $0x15, 224(SI)(CX*4), Y0, Y4
	VPACKSSDW Y2, Y1, Y1
	VPACKSSDW Y4, Y3, Y3
	VPACKSSWB Y3, Y1, Y1
	VPERMD Y1, Y7, Y1
	VPMOVMSKB Y1, R12
	SHLQ $32, R12
	ORQ  R12, DX
	MOVQ DX, (DI)(R11*8)
	INCQ R11
	ADDQ $64, CX
	CMPQ CX, BX
	JL   selrow
	ADDQ $1024, SI
	ADDQ $32, DI
	INCQ R10
	CMPQ R10, R13
	JL   selslot
	VZEROUPPER
	RET

// screenMask: eight all-ones lanes then eight zero lanes; the 8 lanes
// starting at lane 8 - (dim mod 8) mask in the leftover elements.
DATA screenMask<>+0(SB)/8, $0xffffffffffffffff
DATA screenMask<>+8(SB)/8, $0xffffffffffffffff
DATA screenMask<>+16(SB)/8, $0xffffffffffffffff
DATA screenMask<>+24(SB)/8, $0xffffffffffffffff
DATA screenMask<>+32(SB)/8, $0
DATA screenMask<>+40(SB)/8, $0
DATA screenMask<>+48(SB)/8, $0
DATA screenMask<>+56(SB)/8, $0
GLOBL screenMask<>(SB), RODATA|NOPTR, $64

DATA screenTwo<>+0(SB)/4, $0x40000000 // 2.0
GLOBL screenTwo<>(SB), RODATA|NOPTR, $4

// screenPerm: the VPERMD indexes {0, 4, 1, 5, 2, 6, 3, 7} that put the
// dwords of a lane-wise pack of four compare masks back in row order.
DATA screenPerm<>+0(SB)/8, $0x0000000400000000
DATA screenPerm<>+8(SB)/8, $0x0000000500000001
DATA screenPerm<>+16(SB)/8, $0x0000000600000002
DATA screenPerm<>+24(SB)/8, $0x0000000700000003
GLOBL screenPerm<>(SB), RODATA|NOPTR, $32

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
