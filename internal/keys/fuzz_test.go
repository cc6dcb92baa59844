package keys_test

import (
	"bytes"
	"testing"

	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
)

// FuzzUnmarshalPublicKey feeds arbitrary bytes to the decoder of the
// object key a replica sends in step 5. Whatever it accepts must encode
// back to exactly the bytes it read: the key's encoding is what the
// self-certifying OID hashes, so an accepted key with two encodings would
// let a replica present one key under two hashes. The key keeps the
// bytes it accepted and Marshal returns them, so the check encodes the
// decoded key afresh.
func FuzzUnmarshalPublicKey(f *testing.F) {
	for _, alg := range []keys.Algorithm{keys.RSA2048, keys.Ed25519} {
		enc := keytest.Pair(alg).Public().Marshal()
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(append([]byte(nil), enc...), 0))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := keys.UnmarshalPublicKey(data)
		if err != nil {
			return
		}
		if enc := keys.FreshEncoding(k); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which encodes back as %x", data, enc)
		}
		if !bytes.Equal(k.Marshal(), data) {
			t.Fatalf("accepted %x but keeps %x", data, k.Marshal())
		}
	})
}
