//go:build amd64 && !noasm

#include "textflag.h"

// Loop placement. Every routine pins the head of its outermost vector
// loop with PCALIGN $32, so where its loops sit relative to the 32-byte
// fetch windows is a property of this file and not of what the linker
// happened to place before the function. An inner loop head is a fixed
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

	PCALIGN $32
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

	PCALIGN $32
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

// func planarAsm(qd *float64, planes *float32, dim, stride, n int, out *float64, best *planarBest)
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
// is never -0.
//
// out non-nil: the four sums are stored there, NaN lanes canonicalized.
// out nil: the fused argmin. Y4 holds each lane's best distance so far
// and Y6 the index it was found at; Y5 is the index of the centroid now
// in each lane ({0,1,2,3} from best.i on entry, +4 per step). A lane is
// replaced where sum < best — ordered, so a NaN sum never is, and
// strict, so the first of equal sums stays — and both vectors go back
// to *best at the end for the caller to reduce.
TEXT ·planarAsm(SB), NOSPLIT, $0-56
	MOVQ qd+0(FP), SI
	MOVQ planes+8(FP), DI
	MOVQ dim+16(FP), CX
	MOVQ stride+24(FP), R9
	MOVQ n+32(FP), BX
	MOVQ out+40(FP), R8
	MOVQ best+48(FP), R11
	SHLQ $2, R9                // R9 = plane stride in bytes
	TESTQ R8, R8
	JZ   argmininit
	MOVQ $0x7FF8000000000001, AX
	VMOVQ AX, X7
	VBROADCASTSD X7, Y7        // canonical math.NaN() bits, every lane
	JMP  step
argmininit:
	VMOVUPD (R11), Y4
	VMOVDQU 32(R11), Y5
	VPXOR Y6, Y6, Y6
	MOVQ $4, AX
	VMOVQ AX, X7
	VPBROADCASTQ X7, Y7        // the index step

	PCALIGN $32
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

	TESTQ R8, R8
	JZ   argmin
	VCMPPD $3, Y0, Y0, Y3      // all-ones where the lane is NaN
	VBLENDVPD Y3, Y7, Y0, Y0
	VMOVUPD Y0, (R8)
	ADDQ $32, R8
	JMP  next
argmin:
	VCMPPD $1, Y4, Y0, Y3      // all-ones where sum < best (false on NaN)
	VMINPD Y4, Y0, Y4          // sum < best ? sum : best, the same rule
	VBLENDVPD Y3, Y5, Y6, Y6
	VPADDQ Y7, Y5, Y5
next:
	ADDQ $16, DI               // next four centroids
	SUBQ $4, BX
	JG   step

	TESTQ R8, R8
	JNZ  done
	VMOVUPD Y4, (R11)
	VMOVDQU Y6, 32(R11)
done:
	VZEROUPPER
	RET

// func rowsScreenAsm(q, vecs *float32, dim, n int, out *float32) (lo, hi uint32)
//
// The screening pass of the screened argmin (kernel.go): out[i] ≈ the
// squared L2 distance between q and row i in plain float32 — 8-lane
// VSUBPS and VFMADD231PS, no widening — for n ≥ 4 contiguous rows of
// dim ≥ 8 floats. The caller has probed FMA3 (screenOK). These values
// are NOT under the bit-stability contract; only the error bound
// documented in kernel.go is relied on, and every path through here is
// at most dim/8 + 12 roundings deep.
//
// Four rows per step share each load of q (Y8): their lane sums live in
// Y0..Y3, three VHADDPS and one cross-half add fold them into
// X0 = {row0, row1, row2, row3}, and the dim mod 8 leftover elements
// are added four rows at a time (VMOVSS + 3 × VINSERTPS at the row
// stride against the broadcast q[j]). When n is not a multiple of 4
// the last group is re-anchored at row n-4 and rescans up to three rows,
// which rewrites the same values. lo and hi are the unsigned minimum and
// maximum of the float32 BIT PATTERNS written to out: a sum of squares
// is +0 or positive, so below +Inf the unsigned order is the float
// order, and any NaN (either sign) or +Inf lands above every finite
// value — hi alone tells the caller whether the block is safe to trust.
TEXT ·rowsScreenAsm(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), SI
	MOVQ vecs+8(FP), DI
	MOVQ dim+16(FP), CX
	MOVQ n+24(FP), BX
	MOVQ out+32(FP), R8
	MOVQ CX, DX
	ANDQ $-8, DX               // DX = dim &^ 7, the blocked prefix
	LEAQ (CX*4), R9            // R9 = row stride in bytes
	VPCMPEQD X12, X12, X12     // running min of the bit patterns, per lane
	VPXOR X13, X13, X13        // running max

	PCALIGN $32
group:
	LEAQ (DI)(R9*1), R10       // rows 1..3 of the group
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	VXORPS Y0, Y0, Y0          // lane sums of rows 0..3
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX                // AX = element index j

blocked:
	VMOVUPS (SI)(AX*4), Y8
	VSUBPS (DI)(AX*4), Y8, Y4  // d = q - v
	VFMADD231PS Y4, Y4, Y0   // sum += d*d
	VSUBPS (R10)(AX*4), Y8, Y5
	VFMADD231PS Y5, Y5, Y1
	VSUBPS (R11)(AX*4), Y8, Y6
	VFMADD231PS Y6, Y6, Y2
	VSUBPS (R12)(AX*4), Y8, Y7
	VFMADD231PS Y7, Y7, Y3
	ADDQ $8, AX
	CMPQ AX, DX
	JL   blocked

	VHADDPS Y1, Y0, Y0         // per half: {r0, r0, r1, r1} pair sums
	VHADDPS Y3, Y2, Y2         // per half: {r2, r2, r3, r3}
	VHADDPS Y2, Y0, Y0         // per half: {r0, r1, r2, r3}
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0          // X0 = {row0, row1, row2, row3}

tail:
	CMPQ AX, CX
	JGE  store
	VMOVSS (DI)(AX*4), X1
	VINSERTPS $0x10, (R10)(AX*4), X1, X1
	VINSERTPS $0x20, (R11)(AX*4), X1, X1
	VINSERTPS $0x30, (R12)(AX*4), X1, X1
	VBROADCASTSS (SI)(AX*4), X2
	VSUBPS X1, X2, X1          // element j of the four rows
	VMULPS X1, X1, X1
	VADDPS X1, X0, X0
	INCQ AX
	JMP  tail

store:
	VMOVUPS X0, (R8)
	VPMINUD X0, X12, X12
	VPMAXUD X0, X13, X13
	ADDQ $16, R8
	LEAQ (DI)(R9*4), DI        // next four rows
	SUBQ $4, BX
	CMPQ BX, $4
	JGE  group
	TESTQ BX, BX
	JLE  fold
	SUBQ $4, BX                // 1..3 rows left: step back to row n-4
	LEAQ (R8)(BX*4), R8
	IMULQ R9, BX
	ADDQ BX, DI
	MOVQ $4, BX
	JMP  group

fold:
	VPSHUFD $0x4E, X12, X1
	VPMINUD X1, X12, X12
	VPSHUFD $0xB1, X12, X1
	VPMINUD X1, X12, X12
	VPSHUFD $0x4E, X13, X1
	VPMAXUD X1, X13, X13
	VPSHUFD $0xB1, X13, X1
	VPMAXUD X1, X13, X13
	VMOVD X12, AX
	VMOVD X13, DX
	VZEROUPPER
	MOVL AX, lo+40(FP)
	MOVL DX, hi+44(FP)
	RET

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
