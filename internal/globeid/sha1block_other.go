//go:build !amd64

package globeid

// hasSHANI is false off amd64: crypto/sha1 computes every digest (on
// arm64 it already runs the ARMv8 SHA-1 instructions).
func hasSHANI() bool { return false }

func blockSHANI(h *[5]uint32, p []byte) { panic("globeid: no SHA-1 kernel on this architecture") }
