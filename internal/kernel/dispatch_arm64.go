//go:build arm64 && !noasm

package kernel

// NEON dispatch for the arm64 assembly path. Advanced SIMD (ASIMD) is
// part of the baseline ARMv8-A profile Go requires on arm64, so unlike
// the amd64 AVX2 path there is no CPU-feature probe — the path is
// registered unconditionally. Build with `-tags noasm` to exclude the
// assembly and force the portable reference.

// rowLanes is how many centroids planarAsm scores per step: one per
// double lane of a 128-bit vector register.
const rowLanes = 2

// screenOK gates the screened argmin (kernel.go): planarScreenAsm and
// planarNormsAsm need nothing beyond baseline ASIMD.
const screenOK = true

// registerArch appends the NEON path; called once from the package init
// before the dispatch default is chosen. The pair and rows slots are
// the assembly (dispatch_asm.go). The ADC slot points at the portable
// scan for the same reason as on amd64: table lookups are load-bound
// and the blocked reference already saturates them; the dispatch slot
// is where a TBL-based path lands without touching any caller, held to
// the reference by kerneltest.CheckADC/FuzzADCParity.
func registerArch() {
	impls = append(impls, Impl{Name: "neon", SqDist: sqDistVector, Rows: rowsVector, ADCScan: adcScanGeneric})
}
