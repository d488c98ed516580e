// Package color derives the symmetry-breaking applications the paper's
// introduction names: a 3-colouring of a linked list and a maximal
// independent set, both obtained from the matching partition machinery
// ("This algorithm can be used to compute a maximal independent set or a
// 3 coloring for a linked list").
package color

import (
	"fmt"

	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// constantRange mirrors matching's fixed point for iterated f.
const constantRange = 6

// ThreeColor computes a proper 3-colouring of the list's nodes
// (col[v] ≠ col[suc(v)] for every real pointer) by deterministic coin
// tossing: iterate the matching partition function until the labels lie
// in the constant range [0,6) — adjacent nodes then already differ —
// and eliminate colours 5, 4, 3 one class per round (a colour class is
// an independent set, so each node can independently pick the smallest
// colour in {0,1,2} unused by its two neighbours).
// Time O(nG(n)/p + G(n)).
func ThreeColor(m *pram.Machine, l *list.List, e *partition.Evaluator) []int {
	n := l.Len()
	if e == nil {
		e = partition.NewEvaluator(partition.MSB, widthOf(n))
	}
	m.Phase("coin-tossing")
	lab := partition.Iterate(m, l, e, CoinTossingRounds(n))

	m.Phase("reduce-to-3")
	pred := predOf(m, l)
	for c := constantRange - 1; c >= 3; c-- {
		cc := c
		m.ParFor(n, func(v int) {
			if lab[v] == cc {
				lab[v] = recolor(lab, pred[v], l.Next[v])
			}
		})
	}
	return lab
}

// CoinTossingRounds is the number of applications of f that ThreeColor
// runs on an n-node list: the fewest that bring the address labels into
// the constant range [0, 6).
func CoinTossingRounds(n int) int { return partition.IterationsToRange(n, constantRange) }

// NativeReduceToThree is ThreeColor's reduction of colour classes 5, 4
// and 3 without simulated rounds, for the native executor: lab holds
// the labels after CoinTossingRounds(n) applications of f (the
// partition kernel's output), and each class is recoloured in place by
// one plain pass on the calling goroutine, with ThreeColor's per-node
// rule. The colours are ThreeColor's exactly; nothing is charged.
func NativeReduceToThree(m *pram.Machine, l *list.List, lab []int) []int {
	m.Phase("reduce-to-3")
	pred := l.PredInto(ws.IntsNoZero(m.Workspace(), l.Len()))
	for c := constantRange - 1; c >= 3; c-- {
		for v, s := range l.Next {
			if lab[v] == c {
				lab[v] = recolor(lab, pred[v], s)
			}
		}
	}
	return lab
}

// recolor is the colour-class reduction's per-node step: the smallest
// colour in {0,1,2} that neither neighbour p nor s (list.Nil for none)
// holds. A colour class is an independent set, so every node of one
// class can pick at once.
func recolor(lab []int, p, s int) int {
	used := [3]bool{}
	if p != list.Nil && lab[p] < 3 {
		used[lab[p]] = true
	}
	if s != list.Nil && lab[s] < 3 {
		used[lab[s]] = true
	}
	for k := 0; k < 3; k++ {
		if !used[k] {
			return k
		}
	}
	panic("color: no free colour in reduction")
}

// VerifyColoring checks col is a proper colouring with values in
// [0, maxColors).
func VerifyColoring(l *list.List, col []int, maxColors int) error {
	if len(col) != l.Len() {
		return fmt.Errorf("color: length %d, want %d", len(col), l.Len())
	}
	for v, s := range l.Next {
		if col[v] < 0 || col[v] >= maxColors {
			return fmt.Errorf("color: node %d has colour %d outside [0,%d)", v, col[v], maxColors)
		}
		if s != list.Nil && col[v] == col[s] {
			return fmt.Errorf("color: adjacent nodes %d and %d share colour %d", v, s, col[v])
		}
	}
	return nil
}

// MISFromColoring computes a maximal independent set greedily over the
// colour classes: class by class, a node joins if no neighbour has
// joined. Classes are independent sets, so each round is conflict-free.
// O(n/p) time given a C-colouring (C rounds of ⌈n/p⌉).
func MISFromColoring(m *pram.Machine, l *list.List, col []int, colors int) []bool {
	n := l.Len()
	in := ws.Bools(m.Workspace(), n)
	pred := predOf(m, l)
	for c := 0; c < colors; c++ {
		cc := c
		m.ParFor(n, func(v int) {
			if col[v] != cc || in[v] {
				return
			}
			if p := pred[v]; p != list.Nil && in[p] {
				return
			}
			if s := l.Next[v]; s != list.Nil && in[s] {
				return
			}
			in[v] = true
		})
	}
	return in
}

// MISFromMatching converts a maximal matching into a maximal independent
// set: take the tail endpoint of every matched pointer (tails of two
// matched pointers are never adjacent), then admit every node that has
// no neighbour in the set. Maximality of the matching guarantees that no
// two nodes admitted by the fix-up are adjacent (three consecutive
// unmatched pointers would otherwise exist), so the fix-up reads only
// the matched tails: whether it sees another admission or not, each
// node decides the same. One extra round: O(n/p).
func MISFromMatching(m *pram.Machine, l *list.List, matched []bool) []bool {
	n := l.Len()
	in := ws.Bools(m.Workspace(), n)
	pred := predOf(m, l)
	m.ParFor(n, func(v int) { in[v] = matched[v] })
	m.ParFor(n, func(v int) {
		if !in[v] {
			in[v] = misJoins(matched, v, pred[v], l.Next[v])
		}
	})
	return in
}

// NativeMISFromMatching is MISFromMatching without simulated rounds,
// for the native executor: the same per-node rule as one plain pass on
// the calling goroutine. used marks the nodes the matching covers
// (matching.NativeRunner.Used), so v's predecessor is a matched tail
// exactly when used[v] && !matched[v], and no predecessor array is
// needed. The set is MISFromMatching's exactly; nothing is charged.
// The result aliases the machine's workspace.
func NativeMISFromMatching(m *pram.Machine, l *list.List, matched, used []bool) []bool {
	in := ws.BoolsNoZero(m.Workspace(), l.Len())
	for v, s := range l.Next {
		in[v] = matched[v] || !used[v] && (s == list.Nil || !matched[s])
	}
	return in
}

// misJoins is the MIS fix-up's per-node rule: v belongs to the set iff
// it is the tail of a matched pointer or neither neighbour p nor s
// (list.Nil for none) is.
func misJoins(matched []bool, v, p, s int) bool {
	return matched[v] || (p == list.Nil || !matched[p]) && (s == list.Nil || !matched[s])
}

// VerifyMIS checks that in is an independent set (no two adjacent nodes)
// and maximal (every excluded node has an included neighbour).
func VerifyMIS(l *list.List, in []bool) error {
	if len(in) != l.Len() {
		return fmt.Errorf("color: MIS length %d, want %d", len(in), l.Len())
	}
	pred := l.Pred()
	for v, s := range l.Next {
		if in[v] && s != list.Nil && in[s] {
			return fmt.Errorf("color: MIS contains adjacent nodes %d and %d", v, s)
		}
		if !in[v] {
			pIn := pred[v] != list.Nil && in[pred[v]]
			sIn := s != list.Nil && in[s]
			if !pIn && !sIn {
				return fmt.Errorf("color: node %d excluded with no included neighbour (not maximal)", v)
			}
		}
	}
	return nil
}

// MISViaMatching is the end-to-end pipeline: maximal matching with
// Match4, then MISFromMatching.
func MISViaMatching(m *pram.Machine, l *list.List, cfg matching.Match4Config) ([]bool, error) {
	r, err := matching.Match4(m, l, nil, cfg)
	if err != nil {
		return nil, err
	}
	return MISFromMatching(m, l, r.In), nil
}

func widthOf(n int) int {
	w := 1
	for v := 2; v < n; v *= 2 {
		w++
	}
	if w < 2 {
		w = 2
	}
	return w
}

func predOf(m *pram.Machine, l *list.List) []int {
	n := l.Len()
	pred := ws.IntsNoZero(m.Workspace(), n) // first round writes every cell
	m.ParFor(n, func(v int) { pred[v] = list.Nil })
	m.ParFor(n, func(v int) {
		if s := l.Next[v]; s != list.Nil {
			pred[s] = v
		}
	})
	return pred
}
