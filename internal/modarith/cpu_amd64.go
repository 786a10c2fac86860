//go:build amd64 && !noasm

package modarith

// CPU feature detection for the amd64 assembly tier. Hand-rolled CPUID
// rather than golang.org/x/sys/cpu to keep the module dependency-free; the
// checks mirror what the runtime itself does: a feature counts only if the
// CPU reports it AND the OS saves the corresponding register state (XCR0 via
// XGETBV, gated on OSXSAVE).

// cpuid executes CPUID with the given leaf/subleaf. Implemented in
// cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE, checked by the caller). Implemented
// in cpu_amd64.s.
func xgetbv() (eax, edx uint32)

var hasAVX512 = detectAVX512()

func detectAVX512() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		avx512FBit  = 1 << 16
		avx512DQBit = 1 << 17
		zmmState    = 0xe6 // XMM + YMM + opmask + ZMM_Hi256 + Hi16_ZMM
	)
	// The AVX-512 tier uses ZMM registers, opmasks, and VPMULLQ: require
	// F + DQ and full ZMM state saving from the OS.
	return xcr0&zmmState == zmmState &&
		ebx7&avx512FBit != 0 && ebx7&avx512DQBit != 0
}
