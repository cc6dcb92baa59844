//go:build !amd64

package globeid

func kernel() bool { return false }
