//go:build (amd64 || arm64) && !noasm

package kernel

import (
	"math"
	"math/bits"
)

// Go side of the assembly implementations: eight routines per
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

// planarAsm scores n centroids (a positive multiple of rowLanes) of a
// planar table against the widened query qd, one centroid per double
// lane: dim planes (1 ≤ dim < BlockDim) stride floats apart. It writes
// the n distances to out, NaN canonicalized.
//
//go:noescape
func planarAsm(qd *float64, planes *float32, dim, stride, n int, out *float64)

// screenResult is one screened block's bound and answer. The screening
// routine writes per query slot the squared norm it computed and the
// block's smallest value (into lim); screenSelectAsm reads bound and
// those, and writes the candidate limit over the minimum and the
// candidate rows as a bitmap (bit i of the 256-bit row of slot t: row i
// is a candidate; bits at and past n are unspecified). The assembly
// addresses the fields by offset: 0 bound, 24 lim, 40 qq, 56 cand
// (TestScreenResultLayout).
type screenResult struct {
	bound screenBound
	lim   [ArgminTile]float32
	qq    [ArgminTile]float32
	cand  [ArgminTile][argminBlock / 64]uint64
}

// screenAsm is the screening pass of the screened argmin over row-major
// rows: the dot-form values s = ‖v‖² − 2·q·v, in float32, of nq
// (1…ArgminTile) queries against n ≥ 4 rows (dim ≥ 8, n ≤ argminBlock),
// query t's value for row i to out[t*argminBlock+i] (slots past nq
// repeat the last query), each slot's ‖q‖² to res.qq and its smallest
// value to res.lim.
//
//go:noescape
func screenAsm(qs, vecs *float32, dim, n, nq int, out *float32, res *screenResult)

// planarScreenAsm is screenAsm for a planar table: n ≥ planarScreenMinRows
// centroids (n ≤ argminBlock) of dim planes (1 ≤ dim ≤ screenMaxDim)
// stride floats apart. A tile (nq ≥ 2) reads the n centroids' ‖c‖² from
// norms (planarNormsAsm's); a batch of one sums c·(c − 2·q) and does not
// read norms.
//
//go:noescape
func planarScreenAsm(qs, planes, norms *float32, dim, stride, n, nq int, out *float32, res *screenResult)

// planarNormsAsm writes the float32 ‖c‖² of n ≥ planarScreenMinRows
// centroids (n ≤ argminBlock) of a planar table, dim planes stride floats
// apart, to out: the norms a tile of planarScreenAsm reads, computed
// once per block of a call instead of once per tile.
//
//go:noescape
func planarNormsAsm(planes *float32, dim, stride, n int, out *float32)

// screenSelectAsm finishes a screened block of n rows for nq queries:
// from each slot's minimum and ‖q‖² in res, the limit L of res.bound
// (over the minimum in res.lim), and the rows whose value in out is not
// above it (or NaN) into res.cand.
//
//go:noescape
func screenSelectAsm(out *float32, n, nq int, res *screenResult)

// accumulateAsm adds the n ≥ 1 floats at v, widened, into the n doubles
// at sums, with Accumulate's bits.
//
//go:noescape
func accumulateAsm(sums *float64, v *float32, n int)

// accumulateVector is Accumulate under the assembly implementation.
func accumulateVector(sums []float64, v []float32) {
	if len(v) > 0 {
		accumulateAsm(&sums[0], &v[0], len(v))
	}
}

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

// planarVector is planarGeneric under the assembly implementation: whole
// lane groups in assembly, the centroids left over (fewer than rowLanes)
// in portable Go.
func planarVector(q, planes []float32, n, lo int, out []float64) {
	done := len(out) &^ (rowLanes - 1)
	if done > 0 {
		var qd [BlockDim - 1]float64
		for j, x := range q {
			qd[j] = float64(x)
		}
		planarAsm(&qd[0], &planes[lo], len(q), n, done, &out[0])
	}
	if done < len(out) {
		planarGeneric(q, planes, n, lo+done, out[done:])
	}
}

// argminScreened is the screened argmin (package comment, "Screened
// argmin") of the len(out) queries in qs against the n rows of vecs —
// row-major, or a planar table when planar is set — ArgminTile queries
// at a time: per block of argminBlock rows, the screening routine scores
// every row against the tile in float32 dot form, screenSelectAsm marks
// each query's candidates — the rows whose value is within the proved
// margin of that query's smallest — and the exact distance (pairAsm, or
// planarAt) compares the candidates ascending and strict-<, which is the
// exhaustive scan's answer. In a block too small to screen every row is
// a candidate: the exhaustive scan itself. a is the screening values'
// scratch: argminBlock floats for one query, ArgminTile times that for
// more, and one block more for a planar tile's norms.
func argminScreened(qs, vecs []float32, dim, n int, out []int32, a []float32, planar bool) {
	bound, minRows := screenBound{}, screenMinRows
	switch {
	case planar && dim < BlockDim:
		bound, minRows = planarBounds[dim], planarScreenMinRows
	case planar:
		bound, minRows = newScreenBound(dim, true), planarScreenMinRows
	default:
		bound = newScreenBound(dim, false)
	}
	normsAt := -1 // the block whose norms a[ArgminTile*argminBlock:] holds
	for t0 := 0; t0 < len(out); t0 += ArgminTile {
		nt := min(ArgminTile, len(out)-t0)
		var best [ArgminTile]int
		var bestD [ArgminTile]float64
		for t := range bestD {
			bestD[t] = math.Inf(1)
		}
		for r0 := 0; r0 < n; r0 += argminBlock {
			nb := min(argminBlock, n-r0)
			res := screenResult{bound: bound}
			switch {
			case nb < minRows:
				for t := range nt {
					res.cand[t][0] = 1<<nb - 1
				}
			case planar && nt > 1:
				norms := &a[ArgminTile*argminBlock]
				if normsAt != r0 {
					planarNormsAsm(&vecs[r0], dim, n, nb, norms)
					normsAt = r0
				}
				planarScreenAsm(&qs[t0*dim], &vecs[r0], norms, dim, n, nb, nt, &a[0], &res)
				screenSelectAsm(&a[0], nb, nt, &res)
			case planar:
				planarScreenAsm(&qs[t0*dim], &vecs[r0], nil, dim, n, nb, nt, &a[0], &res)
				screenSelectAsm(&a[0], nb, nt, &res)
			default:
				screenAsm(&qs[t0*dim], &vecs[r0*dim], dim, nb, nt, &a[0], &res)
				screenSelectAsm(&a[0], nb, nt, &res)
			}
			for t := range nt {
				q := qs[(t0+t)*dim : (t0+t+1)*dim]
				words := res.cand[t][:(nb+63)/64]
				if rest := nb % 64; rest != 0 {
					words[len(words)-1] &= 1<<rest - 1
				}
				// The one candidate of the only block is the answer: its
				// exact distance would decide nothing.
				one := nb == n && onlyOne(words)
				for w, word := range words {
					for ; word != 0; word &= word - 1 {
						i := r0 + 64*w + bits.TrailingZeros64(word)
						if one {
							best[t] = i
							continue
						}
						var d float64
						if planar {
							d = planarAt(q, vecs, n, i)
						} else {
							d = pairAsm(&q[0], &vecs[i*dim], dim)
						}
						if d < bestD[t] {
							best[t], bestD[t] = i, d
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

// planarAt is the exact distance from q to centroid i of an n-centroid
// planar table of any width, for the screen's candidates: sqDistGeneric's
// sum with each coordinate read from its plane (NaN left uncanonicalized
// — it never wins a strict <).
func planarAt(q, planes []float32, n, i int) float64 {
	nb := len(q) &^ 7
	var p [8]float64
	for j := 0; j < nb; j += 8 {
		for k := 0; k < 8; k++ {
			d := float64(q[j+k]) - float64(planes[(j+k)*n+i])
			p[k] += float64(d * d)
		}
	}
	s := ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]))
	for j := nb; j < len(q); j++ {
		d := float64(q[j]) - float64(planes[j*n+i])
		s += float64(d * d)
	}
	return s
}

// screenBound is the candidate limit of the screened argmin at one
// width, L = a·m + b·qq + c0 (package comment, "Screened argmin"), as
// the coefficients of a line: m is a block's smallest screening value
// for one query and qq that query's squared norm, both as the screening
// routine computed them, and screenSelectAsm evaluates it.
type screenBound struct{ a, b, c0 float64 }

// planarBounds[dim] is the planar bound at each width, computed once: a
// codebook's batch of one is ~100 ns, and the division was 15 of them.
var planarBounds = func() (b [BlockDim]screenBound) {
	for dim := range b {
		b[dim] = newScreenBound(dim, true)
	}
	return b
}()

// newScreenBound is the bound at width dim for row-major rows, or for a
// planar table: only the rounding depth K differs.
func newScreenBound(dim int, planar bool) screenBound {
	k := float64(dim/8 + 12)
	if planar {
		k = float64(dim + 4)
	}
	c := k*0x1p-24/(1-k*0x1p-24) + 0x1p-23 // γ_K + 2u
	eta := float64(dim+8) * 0x1p-147
	w := 16*c + 4*c*(1+4*c)*(1+8*c)
	return screenBound{a: 1 + 4*c*(1+4*c), b: (1 + 2*c) * w, c0: eta * (w + 4*c*(1+4*c) + 1)}
}
