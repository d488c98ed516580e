// Package list provides array-stored linked lists in the paper's
// representation: the n nodes live in an array X[0..n-1] and NEXT[i]
// holds the index of the element following X[i] (Fig. 1). The node's
// array index is its "address"; matching partition functions operate on
// those addresses.
package list

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// Nil marks the absence of a successor (the paper's nil pointer).
const Nil = -1

// List is a linked list of n nodes stored in an array. Next[i] is the
// address of the successor of node i, or Nil for the last node. Head is
// the address of the first node.
type List struct {
	Next []int
	Head int
}

// New wraps a successor array and head address as a List. It does not
// validate; call Validate for structural checks.
func New(next []int, head int) *List {
	return &List{Next: next, Head: head}
}

// Len returns the number of nodes.
func (l *List) Len() int { return len(l.Next) }

// Succ returns the successor address of node v (suc(v)), or Nil.
func (l *List) Succ(v int) int { return l.Next[v] }

// Tail returns the address of the last node (the one with Next = Nil).
// It scans the array; O(n).
func (l *List) Tail() int {
	for i, nx := range l.Next {
		if nx == Nil {
			return i
		}
	}
	return Nil
}

// Pred computes the predecessor array: pred[v] = u with Next[u] = v, or
// Nil for the head.
func (l *List) Pred() []int { return l.PredInto(make([]int, len(l.Next))) }

// PredInto is Pred into caller-provided scratch of length n, returned.
func (l *List) PredInto(pred []int) []int {
	for i := range pred {
		pred[i] = Nil
	}
	for u, v := range l.Next {
		if v != Nil {
			pred[v] = u
		}
	}
	return pred
}

// Order returns the node addresses in list order, head first.
func (l *List) Order() []int {
	out := make([]int, 0, len(l.Next))
	for v := l.Head; v != Nil; v = l.Next[v] {
		out = append(out, v)
		if len(out) > len(l.Next) {
			panic("list: Order on a cyclic list")
		}
	}
	return out
}

// Position returns pos[v] = rank of node v from the head (head = 0).
func (l *List) Position() []int {
	pos := make([]int, len(l.Next))
	for i := range pos {
		pos[i] = -1
	}
	r := 0
	for v := l.Head; v != Nil; v = l.Next[v] {
		pos[v] = r
		r++
		if r > len(l.Next) {
			panic("list: Position on a cyclic list")
		}
	}
	return pos
}

// Clone returns a deep copy of the list.
func (l *List) Clone() *List {
	nx := make([]int, len(l.Next))
	copy(nx, l.Next)
	return &List{Next: nx, Head: l.Head}
}

// ErrInvalid is the sentinel every structural validation error wraps:
// callers test errors.Is(err, ErrInvalid) to tell a malformed list from
// any other failure. The wrapped errors keep their specific messages.
var ErrInvalid = errors.New("list: invalid structure")

// invalidError is a validation failure: its own message, ErrInvalid's
// identity.
type invalidError struct{ msg string }

func (e *invalidError) Error() string { return e.msg }
func (e *invalidError) Unwrap() error { return ErrInvalid }

func invalidf(format string, args ...any) error {
	return &invalidError{msg: fmt.Sprintf(format, args...)}
}

// UnreachableError is the error for a list whose walk from Head reached
// only reached of its n nodes. ValidateInto and any walk that stands in
// for its reachability half (the native rank walker) report the same
// failure through it.
func UnreachableError(reached, n int) error {
	return invalidf("list: %d of %d nodes reachable from head", reached, n)
}

// Validate checks that the structure is a single nil-terminated list
// covering all n nodes: indices in range, exactly one tail, in-degrees
// at most one, and all nodes reachable from Head. Every error it
// returns wraps ErrInvalid.
func (l *List) Validate() error { return l.ValidateInto(nil) }

// DegreeWords is the length of the bitset ValidateDegrees and
// ValidateInto take as scratch for an n-node list: one bit per node.
func DegreeWords(n int) int { return (n + 63) / 64 }

// ValidateInto is Validate with caller-provided scratch for the
// degree pass: hasPred must be zeroed with len ≥ DegreeWords(n), or nil
// to allocate. The engine validates every request's list and passes
// arena scratch here so validation stays off the steady-state alloc
// count.
//
// It runs two halves: ValidateDegrees, a streaming pass over Next, then
// a pointer-chasing walk from Head that counts the reachable nodes.
func (l *List) ValidateInto(hasPred []uint64) error {
	if err := l.ValidateDegrees(hasPred); err != nil {
		return err
	}
	seen := 0
	for v := l.Head; v != Nil; v = l.Next[v] {
		seen++
	}
	if seen != len(l.Next) {
		return UnreachableError(seen, len(l.Next))
	}
	return nil
}

// ValidateDegrees is ValidateInto's first half, the streaming degree
// pass: Head and every Next in range, no self-loop, exactly one tail,
// every in-degree at most one and Head's zero. hasPred is as for
// ValidateInto; the pass sets bit v of it when it meets v's
// predecessor, so a second one is an in-degree above one. Every error
// it returns wraps ErrInvalid.
//
// A list that passes may still hold nodes unreachable from Head — they
// form cycles — but any walk from Head, or from a node chosen to stop
// the walk on its return, ends within n steps: a revisit would give
// some node two predecessors, or Head one. A walk that counts the nodes
// it reaches from Head therefore completes the check: reached == n
// exactly when the list is valid.
func (l *List) ValidateDegrees(hasPred []uint64) error {
	n := len(l.Next)
	if n == 0 {
		return invalidf("list: empty")
	}
	if l.Head < 0 || l.Head >= n {
		return invalidf("list: head %d out of range [0,%d)", l.Head, n)
	}
	tails := 0
	if hasPred == nil {
		hasPred = make([]uint64, DegreeWords(n))
	} else {
		hasPred = hasPred[:DegreeWords(n)]
	}
	for u, v := range l.Next {
		switch {
		case v == Nil:
			tails++
		case v < 0 || v >= n:
			return invalidf("list: Next[%d] = %d out of range", u, v)
		case v == u:
			return invalidf("list: self-loop at %d", u)
		default:
			word, bit := &hasPred[v>>6], uint64(1)<<(v&63)
			if *word&bit != 0 {
				return invalidf("list: node %d has in-degree > 1", v)
			}
			*word |= bit
		}
	}
	if tails != 1 {
		return invalidf("list: %d tails, want 1", tails)
	}
	if hasPred[l.Head>>6]&(1<<(l.Head&63)) != 0 {
		return invalidf("list: head %d has a predecessor", l.Head)
	}
	return nil
}

// PointerCount returns the number of real pointers, n-1.
func (l *List) PointerCount() int { return len(l.Next) - 1 }

// IsForward reports whether the pointer out of node a is a forward
// pointer (head address greater than tail address, b > a). Panics when a
// is the list tail (it has no pointer).
func (l *List) IsForward(a int) bool {
	b := l.Next[a]
	if b == Nil {
		panic(fmt.Sprintf("list: IsForward on tail node %d", a))
	}
	return b > a
}

// FromOrder builds a list whose traversal visits the given addresses in
// order. order must be a permutation of [0,n).
func FromOrder(order []int) *List {
	n := len(order)
	next := make([]int, n)
	for i := range next {
		next[i] = Nil
	}
	for i := 0; i+1 < n; i++ {
		next[order[i]] = order[i+1]
	}
	return &List{Next: next, Head: order[0]}
}

// SequentialList returns the list 0 → 1 → ... → n-1: every pointer is a
// forward pointer.
func SequentialList(n int) *List {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return FromOrder(order)
}

// ReversedList returns the list n-1 → n-2 → ... → 0: every pointer is a
// backward pointer.
func ReversedList(n int) *List {
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	return FromOrder(order)
}

// RandomList returns a list visiting a uniformly random permutation of
// the addresses, seeded deterministically.
func RandomList(n int, seed int64) *List {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	return FromOrder(order)
}

// ZigZagList returns the order 0, n-1, 1, n-2, ...: pointers alternate
// maximally-long forward and backward, the adversarial case for
// bisection-based intuition.
func ZigZagList(n int) *List {
	order := make([]int, 0, n)
	lo, hi := 0, n-1
	for lo <= hi {
		order = append(order, lo)
		lo++
		if lo <= hi {
			order = append(order, hi)
			hi--
		}
	}
	return FromOrder(order)
}

// BlockedList splits the address space into blocks of the given size,
// visits blocks in random order but addresses within a block
// consecutively — lists with locality, as produced by block-wise
// allocation.
func BlockedList(n, blockSize int, seed int64) *List {
	if blockSize < 1 {
		panic(fmt.Sprintf("list: BlockedList blockSize %d < 1", blockSize))
	}
	rng := rand.New(rand.NewSource(seed))
	nb := (n + blockSize - 1) / blockSize
	blocks := rng.Perm(nb)
	order := make([]int, 0, n)
	for _, b := range blocks {
		for i := b * blockSize; i < (b+1)*blockSize && i < n; i++ {
			order = append(order, i)
		}
	}
	return FromOrder(order)
}

// Generator names a list generator for harness sweeps.
type Generator struct {
	Name string
	Make func(n int, seed int64) *List
}

// Generators returns the standard generator set used by experiments.
func Generators() []Generator {
	return []Generator{
		{Name: "random", Make: func(n int, seed int64) *List { return RandomList(n, seed) }},
		{Name: "sequential", Make: func(n int, _ int64) *List { return SequentialList(n) }},
		{Name: "reversed", Make: func(n int, _ int64) *List { return ReversedList(n) }},
		{Name: "zigzag", Make: func(n int, _ int64) *List { return ZigZagList(n) }},
		{Name: "blocked", Make: func(n int, seed int64) *List { return BlockedList(n, 64, seed) }},
	}
}

// RenderBisection draws the Fig.-2 view: the array with its bisecting
// line and, for each pointer crossing the midline, whether it is a
// forward (>) or backward (<) crosser. Intended for small n in CLI
// demos.
func (l *List) RenderBisection() string {
	n := len(l.Next)
	var b strings.Builder
	mid := n / 2
	fmt.Fprintf(&b, "array [0..%d], bisecting line c between %d and %d\n", n-1, mid-1, mid)
	for a, v := range l.Next {
		if v == Nil {
			continue
		}
		crosses := (a < mid) != (v < mid)
		dir := "<"
		if v > a {
			dir = ">"
		}
		mark := " "
		if crosses {
			mark = "c"
		}
		fmt.Fprintf(&b, "  <%2d,%2d> %s %s\n", a, v, dir, mark)
	}
	return b.String()
}
