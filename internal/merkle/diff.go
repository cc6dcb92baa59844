package merkle

import (
	"sort"

	"globedoc/internal/globeid"
)

// This file provides the version-diff helpers behind Merkle-delta
// replication (DESIGN.md §16): a compact root commitment over a
// version's (element name, cert-listed content hash) set, and the set
// difference between two versions' leaf sets. The leaves here are the
// content *hashes* the integrity certificate already lists — not raw
// element bytes — so a root can be recomputed from a certificate alone,
// without transferring any element.

// Leaf is one element of a version's leaf set: its name and the content
// hash its integrity certificate lists.
type Leaf struct {
	Name string
	Hash [globeid.Size]byte
}

// RootOfSorted folds a version's leaf set, sorted by strictly increasing
// name — the order of the certificate's entries — into a single root
// commitment. Leaves are (name, content hash) pairs hashed with the
// tree's leaf domain separator and folded exactly like Build, so the
// root depends on every name and every hash but on nothing else. The
// empty set has the zero root. It sorts nothing and folds in place.
func RootOfSorted(leaves []Leaf) [globeid.Size]byte {
	if len(leaves) == 0 {
		return [globeid.Size]byte{}
	}
	level := make([][globeid.Size]byte, len(leaves))
	for i, l := range leaves {
		level[i] = hashLeaf(l.Name, l.Hash[:])
	}
	for n := len(level); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			right := level[i]
			if i+1 < n {
				right = level[i+1]
			}
			level[i/2] = hashInterior(level[i], right)
		}
	}
	return level[0]
}

// DiffSorted compares two versions' leaf sets, each sorted by strictly
// increasing name, and returns the names a delta transfer must move:
// changed holds names present in to whose hash differs from (or is
// absent in) from; removed holds names present in from but gone in to.
// Both lists are sorted; one walk over the two sets finds them.
func DiffSorted(from, to []Leaf) (changed, removed []string) {
	i, j := 0, 0
	for i < len(from) || j < len(to) {
		switch {
		case j == len(to) || (i < len(from) && from[i].Name < to[j].Name):
			removed = append(removed, from[i].Name)
			i++
		case i == len(from) || to[j].Name < from[i].Name:
			changed = append(changed, to[j].Name)
			j++
		default:
			if from[i].Hash != to[j].Hash {
				changed = append(changed, to[j].Name)
			}
			i, j = i+1, j+1
		}
	}
	return changed, removed
}

// RootFromLeaves is RootOfSorted over a leaf set held as a map.
func RootFromLeaves(leaves map[string][globeid.Size]byte) [globeid.Size]byte {
	return RootOfSorted(sortedLeaves(leaves))
}

// DiffLeaves is DiffSorted over leaf sets held as maps.
func DiffLeaves(from, to map[string][globeid.Size]byte) (changed, removed []string) {
	return DiffSorted(sortedLeaves(from), sortedLeaves(to))
}

// sortedLeaves lists a map's leaves by name.
func sortedLeaves(m map[string][globeid.Size]byte) []Leaf {
	leaves := make([]Leaf, 0, len(m))
	for name, h := range m {
		leaves = append(leaves, Leaf{Name: name, Hash: h})
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Name < leaves[j].Name })
	return leaves
}
