//go:build (amd64 || arm64) && !noasm

package kernel

import (
	"math"
	"math/bits"
)

// Go side of the assembly implementations: four routines per
// architecture (kernel_amd64.s, kernel_arm64.s) behind the same names,
// and the wrappers that fill the Impl slots from them.

// pairAsm is the pair kernel over two n-length vectors, n ≥ 1.
//
//go:noescape
func pairAsm(q, v *float32, n int) float64

// rowsBlockedAsm scores n ≥ 1 dim-length rows against q exactly as n
// pairAsm calls would, with the row loop in assembly; any dim ≥ 1.
// (pairAsm is not its n == 1 case only because the out pointer and row
// bookkeeping cost the pair path ~6 % at dim 64, which DistanceGather
// would pay per candidate.)
//
//go:noescape
func rowsBlockedAsm(q, vecs *float32, dim, n int, out *float64)

// planarBest is the fused argmin's state, one centroid per double lane:
// on entry d is the best distance so far of each lane (+Inf) and i the
// index of the centroid the lane sees first (its lane number); on
// return d and i are each lane's best distance and the index it was
// found at (0 for a lane in which nothing beat d).
type planarBest struct {
	d [rowLanes]float64
	i [rowLanes]int64
}

// planarAsm scores n centroids (a positive multiple of rowLanes) of a
// planar table against the widened query qd, one centroid per double
// lane: dim planes (1 ≤ dim < BlockDim) stride floats apart. With out
// non-nil it writes the n distances there, NaN canonicalized, and
// leaves best alone; with out nil it stores nothing and folds every
// distance into best, strict < per lane.
//
//go:noescape
func planarAsm(qd *float64, planes *float32, dim, stride, n int, out *float64, best *planarBest)

// screenResult is one screenAsm call's bound and answer. The routine
// reads bound and writes the rest: per query slot the candidate limit
// and squared norm it computed, and the candidate rows as a bitmap (bit
// i of the 256-bit row of slot t: row i is a candidate; bits at and past
// n are unspecified). The assembly addresses the fields by offset:
// 0 bound, 24 lim, 40 qq, 56 cand (TestScreenResultLayout).
type screenResult struct {
	bound screenBound
	lim   [ArgminTile]float32
	qq    [ArgminTile]float32
	cand  [ArgminTile][argminBlock / 64]uint64
}

// screenAsm is the screening pass of the screened argmin: the dot-form
// values s = ‖v‖² − 2·q·v, in float32, of nq (1…ArgminTile) queries
// against n ≥ 4 rows (dim ≥ 8, n ≤ argminBlock), query t's value for
// row i to out[t*argminBlock+i] (slots past nq repeat the last query);
// then, for each of the nq queries, the limit L of res.bound from the
// slot's smallest value and ‖q‖², and the rows whose value is not above
// it into res.cand.
//
//go:noescape
func screenAsm(qs, vecs *float32, dim, n, nq int, out *float32, res *screenResult)

func sqDistVector(q, v []float32) float64 {
	if len(q) == 0 {
		return 0
	}
	return pairAsm(&q[0], &v[0], len(q))
}

// rowsVector is the Rows slot of the assembly implementation. Rows of
// at least one block go to the blocked routine. Narrower rows have
// nothing for it to vectorize over — it would run them as a scalar tail
// behind an empty reduction, four times the cost of the portable loop,
// which is unrolled for exactly these widths — so they take the
// portable loop; the tables that are hot at those widths (PQ codebooks)
// are stored dimension-major and go through planarAsm instead.
func rowsVector(q, vecs []float32, dim int, out []float64) {
	if dim < BlockDim {
		rowsGeneric(q, vecs, dim, out)
		return
	}
	if len(out) > 0 {
		rowsBlockedAsm(&q[0], &vecs[0], dim, len(out), &out[0])
	}
}

// widen is the query of a planar call in float64, as planarAsm
// broadcasts it.
func widen(q []float32) (qd [BlockDim - 1]float64) {
	for j, x := range q {
		qd[j] = float64(x)
	}
	return qd
}

// planarVector is DistancePlanar under the assembly implementation:
// whole lane groups in assembly, the centroids left over (fewer than
// rowLanes) in portable Go.
func planarVector(q, planes []float32, out []float64) {
	n := len(out)
	done := n &^ (rowLanes - 1)
	if done > 0 {
		qd := widen(q)
		planarAsm(&qd[0], &planes[0], len(q), n, done, &out[0], nil)
	}
	if done < n {
		planarGeneric(q, planes, n, done, out[done:])
	}
}

// argminPlanarVector is ArgminPlanar under the assembly implementation
// (see there): the fused scan over whole lane groups, the lanes reduced
// by (distance, lowest index) — a lane nothing passed through reports
// +Inf and never wins — then the leftover centroids, which come after
// every lane's in the ascending order, by strict <.
func argminPlanarVector(q, planes []float32, n int) int {
	best, bestD, done := 0, math.Inf(1), n&^(rowLanes-1)
	if done > 0 {
		qd := widen(q)
		var lanes planarBest
		for l := range lanes.d {
			lanes.d[l], lanes.i[l] = math.Inf(1), int64(l)
		}
		planarAsm(&qd[0], &planes[0], len(q), n, done, nil, &lanes)
		for l, d := range lanes.d {
			if i := int(lanes.i[l]); d < bestD || (d == bestD && i < best) {
				best, bestD = i, d
			}
		}
	}
	if done < n {
		var tail [rowLanes]float64
		rest := tail[:n-done]
		planarGeneric(q, planes, n, done, rest)
		for i, d := range rest {
			if d < bestD {
				best, bestD = done+i, d
			}
		}
	}
	return best
}

// argminScreened is the screened argmin (package comment, "Screened
// argmin") of the len(out) queries in qs, ArgminTile at a time: per
// block of argminBlock rows, screenAsm scores every row against the tile
// in float32 dot form and marks each query's candidates — the rows whose
// value is within the proved margin of that query's smallest — and the
// exact pair kernel compares the candidates ascending and strict-<,
// which is the exhaustive scan's answer. In a block of fewer than
// screenMinRows rows every row is a candidate: the exhaustive scan
// itself. a is the screening values' scratch: argminBlock floats for one
// query, ArgminTile times that for more.
func argminScreened(qs, vecs []float32, dim, n int, out []int32, a []float32) {
	bound := newScreenBound(dim)
	for t0 := 0; t0 < len(out); t0 += ArgminTile {
		nt := min(ArgminTile, len(out)-t0)
		var best [ArgminTile]int
		var bestD [ArgminTile]float64
		for t := range bestD {
			bestD[t] = math.Inf(1)
		}
		for r0 := 0; r0 < n; r0 += argminBlock {
			nb := min(argminBlock, n-r0)
			block := vecs[r0*dim:]
			res := screenResult{bound: bound}
			if nb >= screenMinRows {
				screenAsm(&qs[t0*dim], &block[0], dim, nb, nt, &a[0], &res)
			} else {
				for t := range nt {
					res.cand[t][0] = 1<<nb - 1
				}
			}
			for t := range nt {
				q := &qs[(t0+t)*dim]
				words := res.cand[t][:(nb+63)/64]
				if rest := nb % 64; rest != 0 {
					words[len(words)-1] &= 1<<rest - 1
				}
				// The one candidate of the only block is the answer: its
				// exact distance would decide nothing.
				one := nb == n && onlyOne(words)
				for w, word := range words {
					for ; word != 0; word &= word - 1 {
						i := 64*w + bits.TrailingZeros64(word)
						if one {
							best[t] = i
						} else if d := pairAsm(q, &block[i*dim], dim); d < bestD[t] {
							best[t], bestD[t] = r0+i, d
						}
					}
				}
			}
		}
		for t := range nt {
			out[t0+t] = int32(best[t])
		}
	}
}

// onlyOne reports whether exactly one bit is set across words.
func onlyOne(words []uint64) bool {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n == 1
}

// screenBound is the candidate limit of the screened argmin at one
// width, L = a·m + b·qq + c0 (package comment, "Screened argmin"), as
// the coefficients of a line: m is a block's smallest screening value
// for one query and qq that query's squared norm, both as screenAsm
// computed them, and screenAsm evaluates it.
type screenBound struct{ a, b, c0 float64 }

func newScreenBound(dim int) screenBound {
	k := float64(dim/8 + 12)
	c := k*0x1p-24/(1-k*0x1p-24) + 0x1p-23 // γ_K + 2u
	eta := float64(dim+8) * 0x1p-147
	w := 16*c + 4*c*(1+4*c)*(1+8*c)
	return screenBound{a: 1 + 4*c*(1+4*c), b: (1 + 2*c) * w, c0: eta * (w + 4*c*(1+4*c) + 1)}
}
