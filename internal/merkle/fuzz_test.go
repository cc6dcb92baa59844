package merkle_test

import (
	"bytes"
	"testing"

	"globedoc/internal/keys/keytest"
	"globedoc/internal/merkle"
)

// FuzzMerkleDecode feeds arbitrary bytes to both hash-tree decoders. What
// one accepts must re-encode to exactly the input: a decoder that takes
// two encodings of one value gives a signed root or proof two byte forms.
func FuzzMerkleDecode(f *testing.F) {
	tree, err := merkle.Build(elementSet(5))
	if err != nil {
		f.Fatal(err)
	}
	proof, err := tree.Prove("element-004.html")
	if err != nil {
		f.Fatal(err)
	}
	sr, err := merkle.SignRoot(tree, [20]byte{1}, keytest.Ed(), 3, t0, t1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sr.Marshal())
	f.Add(merkle.MarshalProof(proof))
	f.Add(merkle.MarshalProof(merkle.Proof{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if sr, err := merkle.UnmarshalSignedRoot(data); err == nil {
			if got := sr.Marshal(); !bytes.Equal(got, data) {
				t.Fatalf("UnmarshalSignedRoot accepted a non-canonical encoding:\n in  %x\n out %x", data, got)
			}
		}
		if p, err := merkle.UnmarshalProof(data); err == nil {
			if got := merkle.MarshalProof(p); !bytes.Equal(got, data) {
				t.Fatalf("UnmarshalProof accepted a non-canonical encoding:\n in  %x\n out %x", data, got)
			}
		}
	})
}
