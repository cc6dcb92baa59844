// Package merkle implements an SFSRO-style hash tree over a document's
// page elements, the integrity mechanism of the read-only Secure File
// System the paper compares against (§5, ref [6]).
//
// A hash tree signs only the root: each leaf is the SHA-1 hash of one
// element (name + content), interior nodes hash their children, and the
// owner signs the root once, together with a SINGLE validity interval for
// the whole tree. Verification of one element requires the element, its
// authentication path (the sibling hashes up to the root), and the signed
// root.
//
// The design trade-off the paper highlights: signing is cheaper (one
// signature regardless of element count) but freshness is all-or-nothing
// — there is no per-element expiry, unlike GlobeDoc integrity
// certificates. The ablation benchmark BenchmarkAblationCertVsMerkle
// quantifies the verification-cost side of this trade.
package merkle

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"sort"
	"time"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
)

// Errors reported by hash-tree verification.
var (
	ErrBadProof    = errors.New("merkle: authentication path does not verify")
	ErrBadRoot     = errors.New("merkle: signed root does not verify")
	ErrExpired     = errors.New("merkle: tree validity interval exceeded")
	ErrNoLeaf      = errors.New("merkle: element not present in tree")
	ErrBadEncoding = errors.New("merkle: malformed encoding")
)

// hashLeaf domain-separates leaf hashes from interior hashes so a crafted
// element cannot impersonate an interior node. Both compute through
// globeid's streaming digest, the one SHA-1 of the system.
func hashLeaf(name string, content []byte) [globeid.Size]byte {
	var head [1 + 8]byte // 0x00 ‖ len(name)
	putUint64(head[1:], uint64(len(name)))
	h := globeid.NewDigest()
	h.Write(head[:])
	h.Write([]byte(name))
	h.Write(content)
	return h.Sum()
}

func hashInterior(left, right [globeid.Size]byte) [globeid.Size]byte {
	h := globeid.NewDigest()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	return h.Sum()
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// Tree is a built hash tree over a fixed element set.
type Tree struct {
	names  []string // sorted leaf names
	levels [][][globeid.Size]byte
	// levels[0] = leaves, last level = [root]
}

// Build constructs the tree from elements (name -> content). Odd nodes at
// each level are promoted by pairing with themselves, the classic
// duplicate-last construction.
func Build(elements map[string][]byte) (*Tree, error) {
	if len(elements) == 0 {
		return nil, errors.New("merkle: cannot build tree over zero elements")
	}
	names := make([]string, 0, len(elements))
	for name := range elements {
		names = append(names, name)
	}
	sort.Strings(names)
	leaves := make([][globeid.Size]byte, len(names))
	for i, name := range names {
		leaves[i] = hashLeaf(name, elements[name])
	}
	t := &Tree{names: names, levels: [][][globeid.Size]byte{leaves}}
	for level := leaves; len(level) > 1; {
		next := make([][globeid.Size]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashInterior(level[i], level[i+1]))
			} else {
				next = append(next, hashInterior(level[i], level[i]))
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// Root returns the tree's root hash.
func (t *Tree) Root() [globeid.Size]byte {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// Names returns the sorted leaf names.
func (t *Tree) Names() []string { return append([]string(nil), t.names...) }

// ProofStep is one hop of an authentication path.
type ProofStep struct {
	Sibling [globeid.Size]byte
	// Right reports whether the sibling is the right child at this level
	// (i.e. the running hash is the left input).
	Right bool
}

// Proof is the authentication path for one element.
type Proof struct {
	Name  string
	Steps []ProofStep
}

// Prove returns the authentication path for the named element.
func (t *Tree) Prove(name string) (Proof, error) {
	idx := sort.SearchStrings(t.names, name)
	if idx >= len(t.names) || t.names[idx] != name {
		return Proof{}, fmt.Errorf("%w: %q", ErrNoLeaf, name)
	}
	proof := Proof{Name: name}
	for level := 0; level < len(t.levels)-1; level++ {
		nodes := t.levels[level]
		var step ProofStep
		if idx%2 == 0 {
			if idx+1 < len(nodes) {
				step = ProofStep{Sibling: nodes[idx+1], Right: true}
			} else {
				step = ProofStep{Sibling: nodes[idx], Right: true} // self-pair
			}
		} else {
			step = ProofStep{Sibling: nodes[idx-1], Right: false}
		}
		proof.Steps = append(proof.Steps, step)
		idx /= 2
	}
	return proof, nil
}

// VerifyProof recomputes the root implied by content and proof and checks
// it equals root.
func VerifyProof(root [globeid.Size]byte, proof Proof, content []byte) error {
	h := hashLeaf(proof.Name, content)
	for _, step := range proof.Steps {
		if step.Right {
			h = hashInterior(h, step.Sibling)
		} else {
			h = hashInterior(step.Sibling, h)
		}
	}
	if subtle.ConstantTimeCompare(h[:], root[:]) != 1 {
		return fmt.Errorf("%w for element %q", ErrBadProof, proof.Name)
	}
	return nil
}

// SignedRoot is the only signed datum in the r-oSFS design: the root hash
// plus ONE validity interval for the entire file set.
type SignedRoot struct {
	ObjectID  globeid.OID
	Root      [globeid.Size]byte
	Version   uint64
	NotBefore time.Time
	Expires   time.Time
	Sig       []byte
}

func (sr *SignedRoot) signedBytes() []byte {
	w := enc.NewWriter(96)
	w.String("globedoc-merkle-root")
	w.Raw(sr.ObjectID[:])
	w.Raw(sr.Root[:])
	w.Uvarint(sr.Version)
	w.Time(sr.NotBefore)
	w.Time(sr.Expires)
	return w.Bytes()
}

// SignRoot signs the tree's root under the object key.
func SignRoot(t *Tree, oid globeid.OID, owner *keys.KeyPair, version uint64, notBefore, expires time.Time) (*SignedRoot, error) {
	sr := &SignedRoot{
		ObjectID:  oid,
		Root:      t.Root(),
		Version:   version,
		NotBefore: notBefore,
		Expires:   expires,
	}
	sig, err := owner.Sign(sr.signedBytes())
	if err != nil {
		return nil, err
	}
	sr.Sig = sig
	return sr, nil
}

// Verify checks the signed root's signature, object binding and the
// single global validity interval at time now.
func (sr *SignedRoot) Verify(oid globeid.OID, objectKey keys.PublicKey, now time.Time) error {
	if sr.ObjectID != oid {
		return fmt.Errorf("%w: root is for object %s", ErrBadRoot, sr.ObjectID.Short())
	}
	if err := objectKey.Verify(sr.signedBytes(), sr.Sig); err != nil {
		return ErrBadRoot
	}
	if !sr.NotBefore.IsZero() && now.Before(sr.NotBefore) {
		return ErrExpired
	}
	if now.After(sr.Expires) {
		return ErrExpired
	}
	return nil
}

// VerifyElement is the full r-oSFS-style client check: signed root, then
// authentication path.
func (sr *SignedRoot) VerifyElement(oid globeid.OID, objectKey keys.PublicKey, proof Proof, content []byte, now time.Time) error {
	if err := sr.Verify(oid, objectKey, now); err != nil {
		return err
	}
	return VerifyProof(sr.Root, proof, content)
}

// Marshal encodes the signed root.
func (sr *SignedRoot) Marshal() []byte {
	w := enc.NewWriter(160)
	w.BytesPrefixed(sr.signedBytes())
	w.BytesPrefixed(sr.Sig)
	return w.Bytes()
}

// UnmarshalSignedRoot decodes an encoding from Marshal.
func UnmarshalSignedRoot(data []byte) (*SignedRoot, error) {
	outer := enc.NewReader(data)
	body := outer.BytesPrefixed()
	sig := outer.BytesPrefixed()
	if err := outer.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	r := enc.NewReader(body)
	if tag := r.String(); tag != "globedoc-merkle-root" {
		return nil, fmt.Errorf("%w: bad tag %q", ErrBadEncoding, tag)
	}
	var sr SignedRoot
	copy(sr.ObjectID[:], r.Raw(globeid.Size))
	copy(sr.Root[:], r.Raw(globeid.Size))
	sr.Version = r.Uvarint()
	sr.NotBefore = r.Time()
	sr.Expires = r.Time()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	sr.Sig = append([]byte(nil), sig...)
	return &sr, nil
}

// MarshalProof encodes a proof for the wire.
func MarshalProof(p Proof) []byte {
	w := enc.NewWriter(32 + len(p.Steps)*21)
	w.String(p.Name)
	w.Uvarint(uint64(len(p.Steps)))
	for _, s := range p.Steps {
		w.Raw(s.Sibling[:])
		w.Bool(s.Right)
	}
	return w.Bytes()
}

// UnmarshalProof decodes an encoding from MarshalProof.
func UnmarshalProof(data []byte) (Proof, error) {
	r := enc.NewReader(data)
	var p Proof
	p.Name = r.String()
	n := r.Uvarint()
	if n > 64 {
		return Proof{}, fmt.Errorf("%w: implausible proof depth %d", ErrBadEncoding, n)
	}
	for i := uint64(0); i < n; i++ {
		var s ProofStep
		copy(s.Sibling[:], r.Raw(globeid.Size))
		s.Right = r.Bool()
		p.Steps = append(p.Steps, s)
	}
	if err := r.Finish(); err != nil {
		return Proof{}, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	return p, nil
}
