package globeid

// kernel is declared once per architecture, as the real package's SHA-1
// kernel is: the loader must type-check only the file this GOARCH builds.
func kernel() bool { return true }
