package keys

// FreshEncoding encodes pk anew rather than returning the encoding the
// key kept, so a test can hold what a decoder kept against what the key
// it built encodes to.
func FreshEncoding(pk PublicKey) []byte { return pk.encode() }
