package core

import (
	"fmt"
	"slices"
	"testing"

	"globedoc/internal/document"
)

// TestPrefillByNameKeepsTheLastOfEachName: a prefill is in name order,
// each name once, and of two elements under one name the one added
// later stands, as a later reply's bytes replaced an earlier one's in a
// map.
func TestPrefillByNameKeepsTheLastOfEachName(t *testing.T) {
	pre := prefill{
		{name: "b", elem: document.Element{Data: []byte("b1")}},
		{name: "a", elem: document.Element{Data: []byte("a1")}},
		{name: "c", elem: document.Element{Data: []byte("c1")}},
		{name: "b", elem: document.Element{Data: []byte("b2")}},
		{name: "a", elem: document.Element{Data: []byte("a2")}},
		{name: "b", elem: document.Element{Data: []byte("b3")}},
	}
	got := byName(pre)
	var names, data []string
	for _, pf := range got {
		names, data = append(names, pf.name), append(data, string(pf.elem.Data))
	}
	if !slices.Equal(names, []string{"a", "b", "c"}) || !slices.Equal(data, []string{"a2", "b3", "c1"}) {
		t.Fatalf("byName kept %v with %v, want [a b c] with [a2 b3 c1]", names, data)
	}
	for _, want := range []string{"a", "b", "c"} {
		if pf, ok := got.lookup(want); !ok || pf.name != want {
			t.Errorf("lookup(%q) = %q, %v", want, pf.name, ok)
		}
	}
	if _, ok := got.lookup("d"); ok {
		t.Error("lookup found a name the prefill does not hold")
	}
}

// TestPrefillOfAFullBatch: a reply of the most items a batch may carry
// (2^16) is ordered and searched in n log n, whichever order its items
// came in: every element is found under its name.
func TestPrefillOfAFullBatch(t *testing.T) {
	const n = 1 << 16
	var pre prefill
	for i := n - 1; i >= 0; i-- { // the worst order for a name-ordered prefill
		pre = append(pre, prefetched{name: fmt.Sprintf("el-%05d", i)})
	}
	pre = byName(pre)
	if len(pre) != n {
		t.Fatalf("byName kept %d of %d distinct names", len(pre), n)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("el-%05d", i)
		if pf, ok := pre.lookup(name); !ok || pf.name != name {
			t.Fatalf("lookup(%q) = %q, %v", name, pf.name, ok)
		}
	}
}
