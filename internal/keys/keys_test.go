package keys_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
)

var algorithms = []keys.Algorithm{keys.RSA2048, keys.Ed25519}

func TestSignVerify(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			kp := keytest.Pair(alg)
			msg := []byte("the quick brown fox")
			sig, err := kp.Sign(msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if err := kp.Public().Verify(msg, sig); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			kp := keytest.Pair(alg)
			msg := []byte("original message")
			sig, err := kp.Sign(msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			msg[0] ^= 0xff
			if err := kp.Public().Verify(msg, sig); err == nil {
				t.Fatal("Verify accepted tampered message")
			}
		})
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			kp := keytest.Pair(alg)
			msg := []byte("message")
			sig, err := kp.Sign(msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			sig[len(sig)/2] ^= 0x01
			if err := kp.Public().Verify(msg, sig); err == nil {
				t.Fatal("Verify accepted tampered signature")
			}
		})
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	a := keytest.RSA()
	b := keytest.RSA()
	if a == b {
		t.Skip("pool returned identical pairs")
	}
	msg := []byte("message")
	sig, err := a.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := b.Public().Verify(msg, sig); err == nil {
		t.Fatal("Verify accepted signature from a different key")
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			pk := keytest.Pair(alg).Public()
			data := pk.Marshal()
			got, err := keys.UnmarshalPublicKey(data)
			if err != nil {
				t.Fatalf("UnmarshalPublicKey: %v", err)
			}
			if !got.Equal(pk) {
				t.Fatal("round-tripped key differs")
			}
			if !bytes.Equal(got.Marshal(), data) || !bytes.Equal(keys.FreshEncoding(got), data) {
				t.Fatal("re-marshalled encoding differs")
			}
		})
	}
}

func TestPublicKeyMarshalDeterministic(t *testing.T) {
	pk := keytest.RSA().Public()
	if !bytes.Equal(pk.Marshal(), pk.Marshal()) {
		t.Fatal("Marshal not deterministic")
	}
}

func TestKeyPairMarshalRoundTrip(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			kp := keytest.Pair(alg)
			got, err := keys.UnmarshalKeyPair(kp.Marshal())
			if err != nil {
				t.Fatalf("UnmarshalKeyPair: %v", err)
			}
			if !got.Public().Equal(kp.Public()) {
				t.Fatal("round-tripped pair has different public key")
			}
			// The restored private key must produce verifiable signatures.
			msg := []byte("round trip")
			sig, err := got.Sign(msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if err := kp.Public().Verify(msg, sig); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

func TestUnmarshalPublicKeyRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, {}, {99}, {1, 5, 1, 2, 3}, {2, 3, 1, 2, 3}}
	for _, data := range cases {
		if _, err := keys.UnmarshalPublicKey(data); err == nil {
			t.Errorf("UnmarshalPublicKey(%v) succeeded", data)
		}
	}
}

func TestQuickGarbagePublicKeysRejectedOrRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		pk, err := keys.UnmarshalPublicKey(data)
		if err != nil {
			return true // rejection is fine
		}
		// If parsing succeeded the key must encode back to the input.
		return bytes.Equal(keys.FreshEncoding(pk), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmStringParse(t *testing.T) {
	for _, alg := range algorithms {
		got, err := keys.ParseAlgorithm(alg.String())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", alg.String(), err)
		}
		if got != alg {
			t.Errorf("ParseAlgorithm(%q) = %v", alg.String(), got)
		}
	}
	if _, err := keys.ParseAlgorithm("dsa"); err == nil {
		t.Error("ParseAlgorithm accepted unknown algorithm")
	}
}

func TestDistinctKeysNotEqual(t *testing.T) {
	a := keytest.RSA().Public()
	b := keytest.Ed().Public()
	if a.Equal(b) {
		t.Fatal("keys with different algorithms reported equal")
	}
}

// TestUnmarshalPublicKeyKeepsItsOwnCopy: the encoding a decoded key
// keeps is its own allocation, so writing over the buffer it was decoded
// from changes neither its encoding nor what it verifies.
func TestUnmarshalPublicKeyKeepsItsOwnCopy(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			kp := keytest.Pair(alg)
			data := bytes.Clone(kp.Public().Marshal())
			got, err := keys.UnmarshalPublicKey(data)
			if err != nil {
				t.Fatal(err)
			}
			for i := range data {
				data[i] ^= 0xff
			}
			if !bytes.Equal(got.Marshal(), kp.Public().Marshal()) || !got.Equal(kp.Public()) {
				t.Fatal("overwriting the decoded buffer changed the key's encoding")
			}
			msg := []byte("kept")
			sig, err := kp.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Verify(msg, sig); err != nil {
				t.Fatalf("overwriting the decoded buffer changed the key: %v", err)
			}
		})
	}
}
