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

var (
	hasAVX512 = detectAVX512()
	hasVAES   = hasAVX512 && detectVAES()
	hasIFMA   = hasAVX512 && detectIFMA()
)

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

// detectVAES reports the vector AES instructions (CPUID leaf 7, ECX bit 9),
// which the fused uniform expander runs its AES rounds on in ZMM registers;
// the ZMM state itself is detectAVX512's check.
func detectVAES() bool {
	_, _, ecx7, _ := cpuid(7, 0)
	const vaesBit = 1 << 9
	return ecx7&vaesBit != 0
}

// detectIFMA reports the 52-bit integer multiply-adds (AVX512_IFMA, CPUID leaf
// 7, EBX bit 21), which the key switch's two-output dot runs on.
func detectIFMA() bool {
	_, ebx7, _, _ := cpuid(7, 0)
	const ifmaBit = 1 << 21
	return ebx7&ifmaBit != 0
}
