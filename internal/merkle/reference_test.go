package merkle_test

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"globedoc/internal/globeid"
	"globedoc/internal/merkle"
)

// refRoot is the tree's construction written out on crypto/sha1, apart
// from the package: leaf = SHA-1(0x00 ‖ uint64be(len(name)) ‖ name ‖
// content), interior = SHA-1(0x01 ‖ left ‖ right), an odd last node
// paired with itself.
func refRoot(leaves map[string][]byte) [globeid.Size]byte {
	names := make([]string, 0, len(leaves))
	for name := range leaves {
		names = append(names, name)
	}
	sort.Strings(names)
	var level [][globeid.Size]byte
	for _, name := range names {
		msg := binary.BigEndian.AppendUint64([]byte{0x00}, uint64(len(name)))
		msg = append(append(msg, name...), leaves[name]...)
		level = append(level, sha1.Sum(msg))
	}
	for len(level) > 1 {
		var next [][globeid.Size]byte
		for i := 0; i < len(level); i += 2 {
			right := level[min(i+1, len(level)-1)]
			next = append(next, sha1.Sum(append(append([]byte{0x01}, level[i][:]...), right[:]...)))
		}
		level = next
	}
	return level[0]
}

// TestRootsMatchReference pins the roots Build and RootFromLeaves compute
// through globeid's digest to the crypto/sha1 reference, over element
// sets whose leaves straddle SHA-1's padding and block boundaries.
func TestRootsMatchReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 33} {
		elems := make(map[string][]byte, n)
		hashes := make(map[string][globeid.Size]byte, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("element-%03d.html", i)
			elems[name] = make([]byte, 37*i*i) // 0 B .. 38 KB
			for j := range elems[name] {
				elems[name][j] = byte(i + j*7)
			}
			hashes[name] = globeid.HashElement(elems[name])
		}
		tree, err := merkle.Build(elems)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tree.Root(), refRoot(elems); got != want {
			t.Errorf("%d elements: Build root %x, reference %x", n, got, want)
		}
		hashLeaves := make(map[string][]byte, n)
		for name, h := range hashes {
			hashLeaves[name] = h[:]
		}
		if got, want := merkle.RootFromLeaves(hashes), refRoot(hashLeaves); got != want {
			t.Errorf("%d elements: RootFromLeaves %x, reference %x", n, got, want)
		}
	}
}

// TestRootGolden pins one root as bytes, so the reference above cannot
// drift together with the code it checks.
func TestRootGolden(t *testing.T) {
	tree, err := merkle.Build(map[string][]byte{
		"index.html": []byte("<html>GlobeDoc</html>"),
		"logo.png":   make([]byte, 4096),
		"style.css":  []byte("body{}"),
	})
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()
	if got, want := hex.EncodeToString(root[:]), "cbc2205c1effb5f20ba541790efe609a49bf0fc4"; got != want {
		t.Errorf("root = %s, want %s", got, want)
	}
}
