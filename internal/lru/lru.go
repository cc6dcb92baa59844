// Package lru is the recency list under the client's caches: a doubly
// linked list whose nodes hold their values inline. A cache that indexes
// its entries as map[K]*Node[entry] pays one heap object per entry, where
// container/list's *Element holding a pointer to the entry pays two.
//
// A List is not safe for concurrent use; its owner's lock guards it. The
// zero List is empty and ready to use.
package lru

// Node is one list member. Value is the caller's, to read and write in
// place; the links are the list's.
type Node[T any] struct {
	prev, next *Node[T]
	Value      T
}

// Prev returns the neighbour of n towards the front, or nil when n is first.
func (n *Node[T]) Prev() *Node[T] { return n.prev }

// List is a doubly linked list ordered front (most recently used) to
// back (least recently used).
type List[T any] struct {
	front, back *Node[T]
}

// Back returns the last node of l, or nil when l is empty.
func (l *List[T]) Back() *Node[T] { return l.back }

// PushFront inserts a new node holding v at the front of l and returns it.
func (l *List[T]) PushFront(v T) *Node[T] {
	n := &Node[T]{Value: v}
	l.linkFront(n)
	return n
}

// MoveToFront moves n, a node of l, to the front of l.
func (l *List[T]) MoveToFront(n *Node[T]) {
	if l.front == n {
		return
	}
	l.unlink(n)
	l.linkFront(n)
}

// Remove takes n, a node of l, out of l. Its Value is left as it was.
func (l *List[T]) Remove(n *Node[T]) {
	l.unlink(n)
	n.prev, n.next = nil, nil
}

func (l *List[T]) linkFront(n *Node[T]) {
	n.prev, n.next = nil, l.front
	if l.front != nil {
		l.front.prev = n
	} else {
		l.back = n
	}
	l.front = n
}

func (l *List[T]) unlink(n *Node[T]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.front = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.back = n.prev
	}
}
