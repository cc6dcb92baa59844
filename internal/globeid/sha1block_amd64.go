package globeid

// blockSHANI folds each whole 64-byte block of p into h with the SHA
// extensions; a trailing partial block is ignored.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// hasSHANI reports whether the CPU runs the kernel: the SHA extensions
// (CPUID leaf 7, EBX bit 29) plus PSHUFB (SSSE3, leaf 1 ECX bit 9) and
// PINSRD/PEXTRD (SSE4.1, leaf 1 ECX bit 19).
func hasSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<29) != 0 && ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0
}
