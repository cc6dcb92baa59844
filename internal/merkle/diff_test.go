package merkle_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"globedoc/internal/globeid"
	"globedoc/internal/merkle"
)

// TestSortedLeavesMatchMaps: RootOfSorted and DiffSorted, which walk leaf
// sets in name order, agree with a map-based reading of the same sets —
// the root with RootFromLeaves, the diff with a set difference — over
// random pairs of versions that add, drop and change elements.
func TestSortedLeavesMatchMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	leafSet := func() map[string][globeid.Size]byte {
		m := make(map[string][globeid.Size]byte)
		for i := 0; i < 12; i++ {
			if rng.Intn(3) > 0 {
				m[fmt.Sprintf("e%02d", i)] = globeid.HashElement([]byte{byte(rng.Intn(2))})
			}
		}
		return m
	}
	sorted := func(m map[string][globeid.Size]byte) []merkle.Leaf {
		var l []merkle.Leaf
		for name, h := range m {
			l = append(l, merkle.Leaf{Name: name, Hash: h})
		}
		sort.Slice(l, func(i, j int) bool { return l[i].Name < l[j].Name })
		return l
	}
	for round := 0; round < 200; round++ {
		from, to := leafSet(), leafSet()
		if got, want := merkle.RootOfSorted(sorted(to)), merkle.RootFromLeaves(to); got != want {
			t.Fatalf("round %d: RootOfSorted %x, RootFromLeaves %x", round, got, want)
		}
		var wantChanged, wantRemoved []string
		for name, h := range to {
			if prev, ok := from[name]; !ok || prev != h {
				wantChanged = append(wantChanged, name)
			}
		}
		for name := range from {
			if _, ok := to[name]; !ok {
				wantRemoved = append(wantRemoved, name)
			}
		}
		sort.Strings(wantChanged)
		sort.Strings(wantRemoved)
		changed, removed := merkle.DiffSorted(sorted(from), sorted(to))
		if !reflect.DeepEqual(changed, wantChanged) || !reflect.DeepEqual(removed, wantRemoved) {
			t.Fatalf("round %d: DiffSorted = %v, %v; want %v, %v", round, changed, removed, wantChanged, wantRemoved)
		}
		if c, r := merkle.DiffLeaves(from, to); !reflect.DeepEqual(c, wantChanged) || !reflect.DeepEqual(r, wantRemoved) {
			t.Fatalf("round %d: DiffLeaves = %v, %v; want %v, %v", round, c, r, wantChanged, wantRemoved)
		}
	}
}
