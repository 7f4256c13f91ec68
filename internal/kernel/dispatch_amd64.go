//go:build amd64 && !noasm

package kernel

// CPU-feature dispatch for the AVX2 assembly path. The kernel needs
// AVX (256-bit double arithmetic + VEXTRACTF128) with OS-enabled YMM
// state; we additionally require AVX2, matching the path's name and the
// CPU generation it is tuned for. Build with `-tags noasm` to exclude
// the assembly and force the portable reference.

// rowLanes is how many centroids planarAsm scores per step: one per
// double lane of a YMM register.
const rowLanes = 4

// CPU probes (kernel_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports AVX2 support with OS-managed YMM state: CPUID.1:ECX
// OSXSAVE(27)+AVX(28), XCR0 SSE+AVX state enabled, CPUID.7.0:EBX AVX2(5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state both OS-enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// screenOK gates the screened argmin (kernel.go): planarScreenAsm and
// planarNormsAsm use VFMADD231PS, which hasAVX2 does not vouch for, so
// registerArch probes FMA3 separately — CPUID.1:ECX bit 12. An AVX2 host
// without it keeps the exact scan.
var screenOK bool

// registerArch appends the AVX2 path when the host supports it; called
// once from the package init before the dispatch default is chosen.
// The pair and rows slots are the assembly (dispatch_asm.go). The ADC
// slot points at the portable scan — table lookups are load-bound and
// the blocked reference already saturates them; the dispatch slot is
// where a VPGATHERDD path lands without touching any caller, held to
// the reference by kerneltest.CheckADC/FuzzADCParity.
func registerArch() {
	if hasAVX2() {
		impls = append(impls, Impl{Name: "avx2", SqDist: sqDistVector, Rows: rowsVector, ADCScan: adcScanGeneric})
		_, _, ecx1, _ := cpuid(1, 0)
		const fma = 1 << 12
		screenOK = ecx1&fma != 0
	}
}
