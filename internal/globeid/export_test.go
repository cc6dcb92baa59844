package globeid

// HasKernel reports whether this CPU runs the SHA extensions kernel.
var HasKernel = hasSHANI()

// UseKernel turns the kernel on or off (off: crypto/sha1 computes every
// digest) and returns a func that restores the previous setting.
func UseKernel(on bool) (restore func()) {
	was := useSHANI
	useSHANI = on
	return func() { useSHANI = was }
}
