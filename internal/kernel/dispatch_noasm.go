//go:build (!amd64 && !arm64) || noasm

package kernel

// No hardware path on this build: the portable reference registered in
// kernel.go is the only implementation. The `noasm` tag forces this
// even on amd64/arm64 — CI runs the whole test suite under it so the
// portable fallback cannot bit-rot on hardware that would auto-select
// a vector path.

func registerArch() {}

// rowsVector, planarVector and accumulateVector are never reached on
// this build (the registry holds only the portable reference); they
// exist so the dispatch to them compiles to static calls on every build.
func rowsVector(q, vecs []float32, dim int, out []float64) { rowsGeneric(q, vecs, dim, out) }

func planarVector(q, planes []float32, n, lo int, out []float64) {
	planarGeneric(q, planes, n, lo, out)
}

func accumulateVector(sums []float64, v []float32) { accumulateGeneric(sums, v) }

// screenOK is false without an assembly implementation, so
// argminScreened is never reached either.
const screenOK = false

func argminScreened(qs, vecs []float32, dim, n int, out []int32, a []float32, planar bool) {
	panic("kernel: no screening routine on this build")
}
