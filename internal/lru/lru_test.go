package lru

import (
	"math/rand"
	"slices"
	"testing"

	"globedoc/internal/alloctest"
)

// order returns l's values front to back, walking forward, after
// checking that the backward walk agrees with it.
func order(t *testing.T, l *List[int]) []int {
	t.Helper()
	var fwd, bwd []int
	for n := l.front; n != nil; n = n.next {
		fwd = append(fwd, n.Value)
	}
	for n := l.Back(); n != nil; n = n.Prev() {
		bwd = append(bwd, n.Value)
	}
	slices.Reverse(bwd)
	if !slices.Equal(fwd, bwd) {
		t.Fatalf("forward walk %v, backward walk reversed %v", fwd, bwd)
	}
	return fwd
}

func TestZeroListIsEmpty(t *testing.T) {
	var l List[int]
	if l.front != nil || l.Back() != nil {
		t.Fatalf("zero list: front %v, Back %v", l.front, l.Back())
	}
}

func TestPushMoveRemove(t *testing.T) {
	var l List[int]
	n1 := l.PushFront(1)
	n2 := l.PushFront(2)
	n3 := l.PushFront(3)
	if got := order(t, &l); !slices.Equal(got, []int{3, 2, 1}) {
		t.Fatalf("after pushes: %v", got)
	}
	l.MoveToFront(n1)
	if got := order(t, &l); !slices.Equal(got, []int{1, 3, 2}) {
		t.Fatalf("after moving the back node: %v", got)
	}
	l.MoveToFront(n3)
	if got := order(t, &l); !slices.Equal(got, []int{3, 1, 2}) {
		t.Fatalf("after moving a middle node: %v", got)
	}
	l.MoveToFront(n3)
	if got := order(t, &l); !slices.Equal(got, []int{3, 1, 2}) {
		t.Fatalf("after moving the front node: %v", got)
	}
	l.Remove(n1)
	if got := order(t, &l); !slices.Equal(got, []int{3, 2}) {
		t.Fatalf("after removing a middle node: %v", got)
	}
	if n1.Prev() != nil || n1.next != nil || n1.Value != 1 {
		t.Fatalf("a removed node keeps links or loses its value: %+v", n1)
	}
	l.Remove(n2)
	l.Remove(n3)
	if got := order(t, &l); len(got) != 0 || l.front != nil || l.Back() != nil {
		t.Fatalf("after removing all: %v", got)
	}
	l.PushFront(4)
	if got := order(t, &l); !slices.Equal(got, []int{4}) {
		t.Fatalf("a drained list reused: %v", got)
	}
}

// TestValueIsInline: a node's Value is written in place, so a cache keeps
// its entry in the node rather than behind a second pointer.
func TestValueIsInline(t *testing.T) {
	type entry struct{ hits int }
	var l List[entry]
	n := l.PushFront(entry{})
	n.Value.hits++
	if l.Back().Value.hits != 1 {
		t.Fatal("a write through the node is not seen through the list")
	}
}

// TestMatchesSliceModel drives a list and a slice with the same random
// pushes, moves and removes and compares them after every step.
func TestMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var l List[int]
	var model []int // front first
	nodes := map[int]*Node[int]{}
	next := 0
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(model) == 0:
			nodes[next] = l.PushFront(next)
			model = slices.Insert(model, 0, next)
			next++
		case op == 1:
			i := rng.Intn(len(model))
			v := model[i]
			l.MoveToFront(nodes[v])
			model = slices.Insert(slices.Delete(model, i, i+1), 0, v)
		default:
			i := rng.Intn(len(model))
			v := model[i]
			l.Remove(nodes[v])
			delete(nodes, v)
			model = slices.Delete(model, i, i+1)
		}
		if got := order(t, &l); !slices.Equal(got, model) {
			t.Fatalf("step %d: list %v, model %v", step, got, model)
		}
	}
}

func TestPushFrontAllocatesOneObject(t *testing.T) {
	type entry struct {
		key  [20]byte
		data []byte
	}
	var l List[entry]
	got := alloctest.AllocsPerRun(t, 100, func() { l.PushFront(entry{}) })
	if got != 1 {
		t.Errorf("PushFront allocates %.0f objects, want 1: the node with its value", got)
	}
}
