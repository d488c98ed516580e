// Package partition implements the paper's matching partition functions.
//
// A function m(a,b) is a matching partition function if
// m(a,b) ≠ m(b,c) whenever a ≠ b or b ≠ c: applying it to every pointer
// ⟨v, suc(v)⟩ of a linked list yields labels under which pointers with
// equal labels have disjoint heads and tails — each label class is a
// matching set.
//
// The paper's function (Lemma 1) is
//
//	f(⟨a,b⟩) = 2k + a_k,  k = max{ i : bit i of a XOR b is 1 }
//
// which partitions the n pointers into 2·log n matching sets; the
// variant using the least significant differing bit (easier to compute
// with the appendix's table scheme) does the same. Repeated application
// (Lemma 2) coarsens the partition to 2·log^(k-1) n (1+o(1)) sets.
package partition

import (
	"fmt"

	"parlist/internal/bits"
	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// Variant selects which differing bit f extracts.
type Variant int

const (
	// MSB is the paper's intuition-preserving definition (bisecting
	// lines): k = most significant differing bit.
	MSB Variant = iota
	// LSB is the computation-friendly definition from [6,15]:
	// k = least significant differing bit.
	LSB
)

// String returns the variant name.
func (v Variant) String() string {
	if v == MSB {
		return "msb"
	}
	return "lsb"
}

// F computes f(⟨a,b⟩) = 2k + a_k with k the most significant bit where a
// and b differ. a must differ from b; both must be ≥ 0. F is within the
// compiler's inlining budget, so a loop calling it pays no call per
// pointer (see ApplyRange).
func F(a, b int) int {
	if a == b {
		panic(equalArgsError{a, b})
	}
	k := bits.MSB(a ^ b)
	return 2*k + bits.Bit(a, k)
}

// FLSB computes the least-significant-bit variant f₁(⟨a,b⟩) = 2k + a_k
// with k the least significant differing bit.
func FLSB(a, b int) int {
	if a == b {
		panic(fmt.Sprintf("partition: FLSB(%d,%d) with equal arguments", a, b))
	}
	k := bits.LSB(a ^ b)
	return 2*k + bits.Bit(a, k)
}

// equalArgsError is F's panic value on equal arguments, where f is
// undefined. A typed value instead of a formatted string keeps F
// inlinable; Error formats the message.
type equalArgsError struct{ a, b int }

func (e equalArgsError) Error() string {
	return fmt.Sprintf("partition: F(%d,%d) with equal arguments", e.a, e.b)
}

// NextRange returns the label-range size after one application of f to
// labels drawn from [0, cur): values 2k + bit with k ≤ w-1 for
// w = ⌈log₂ cur⌉ bits, hence the new range is [0, 2w). For cur ≤ 2 the
// range can no longer shrink and 4 is returned (k = 0, bit ∈ {0,1} plus
// headroom for the degenerate 2-value case).
func NextRange(cur int) int {
	if cur < 2 {
		panic(fmt.Sprintf("partition: NextRange(%d) below 2", cur))
	}
	w := bits.CeilLog2(cur)
	if w < 2 {
		w = 2
	}
	return 2 * w
}

// RangeAfter returns the label-range size after k applications of f
// starting from labels in [0, n): the quantitative form of Lemma 2's
// 2·log^(k-1) n (1+o(1)) bound.
func RangeAfter(n, k int) int {
	r := n
	for i := 0; i < k; i++ {
		r = NextRange(r)
	}
	return r
}

// IterationsToRange returns the smallest k with RangeAfter(n, k) ≤ target
// (k ≤ G(n)+2 always suffices for target ≥ 6, since the range fixes at
// 2·w with w small). Panics if target is below the fixed point.
func IterationsToRange(n, target int) int {
	if target < 6 {
		panic(fmt.Sprintf("partition: IterationsToRange target %d below fixed point 6", target))
	}
	r := n
	for k := 0; ; k++ {
		if r <= target {
			return k
		}
		nr := NextRange(r)
		if nr >= r && r <= 6 {
			return k
		}
		r = nr
		if k > 128 {
			panic("partition: IterationsToRange did not converge")
		}
	}
}

// Evaluator computes f either directly via machine instructions
// (math/bits) or faithfully via the appendix's lookup tables
// (unary→binary conversion plus a bit-reversal permutation table for the
// MSB variant). Direct and table modes produce identical values; tests
// assert this.
type Evaluator struct {
	variant Variant
	width   int
	u       *bits.UnaryTable
	rev     *bits.ReverseTable
}

// MaxTableWidth bounds the bit width for which table-based evaluation is
// offered (a ReverseTable has 2^w entries).
const MaxTableWidth = 20

// NewEvaluator returns a direct (instruction-based) evaluator for labels
// of at most `width` bits.
func NewEvaluator(v Variant, width int) *Evaluator {
	if width < 1 {
		panic(fmt.Sprintf("partition: NewEvaluator width %d < 1", width))
	}
	return &Evaluator{variant: v, width: width}
}

// NewTableEvaluator returns an evaluator using the appendix's lookup
// tables. width must be ≤ MaxTableWidth.
func NewTableEvaluator(v Variant, width int) *Evaluator {
	if width < 1 || width > MaxTableWidth {
		panic(fmt.Sprintf("partition: NewTableEvaluator width %d out of [1,%d]", width, MaxTableWidth))
	}
	e := &Evaluator{variant: v, width: width}
	e.u = bits.NewUnaryTable(1 << uint(width))
	if v == MSB {
		e.rev = bits.NewReverseTable(width)
	}
	return e
}

// Variant returns the evaluator's bit-selection variant.
func (e *Evaluator) Variant() Variant { return e.variant }

// Width returns the supported label bit width.
func (e *Evaluator) Width() int { return e.width }

// UsesTables reports whether the appendix table scheme is in use.
func (e *Evaluator) UsesTables() bool { return e.u != nil }

// Apply computes the matching partition function on one pointer value
// pair. a must differ from b.
func (e *Evaluator) Apply(a, b int) int {
	if e.u == nil {
		if e.variant == MSB {
			return F(a, b)
		}
		return FLSB(a, b)
	}
	var k int
	if e.variant == MSB {
		k = e.u.MSBLookup(a, b, e.rev)
	} else {
		k = e.u.LSBLookup(a, b)
	}
	return 2*k + bits.Bit(a, k)
}

// ApplyRange is one CREW application of f over the nodes [lo, hi):
// out[v] = f(⟨lab[v], lab[suc(v)]⟩), the tail reading the head's label
// as its pseudo-successor (Step's rule). The direct MSB evaluator runs
// a loop over the inlined F, with no call per pointer; every other
// evaluator goes through Apply, which is over the inlining budget. The
// native kernels call it on their chunk of every application.
func (e *Evaluator) ApplyRange(next []int, head int, lab, out []int, lo, hi int) {
	if e.u == nil && e.variant == MSB {
		for v := lo; v < hi; v++ {
			s := next[v]
			if s == list.Nil {
				s = head
			}
			out[v] = F(lab[v], lab[s])
		}
		return
	}
	for v := lo; v < hi; v++ {
		s := next[v]
		if s == list.Nil {
			s = head
		}
		out[v] = e.Apply(lab[v], lab[s])
	}
}

// Fold evaluates f^(k) on a tuple of k values by k-1 pairwise passes:
// f^(k)(a₁..a_k) = f(f^(k-1)(a₁..a_{k-1}), f^(k-1)(a₂..a_k)), which the
// triangle of passes computes bottom-up. Adjacent tuple elements must be
// distinct (they are, along a labelled list). The input slice is not
// modified.
func (e *Evaluator) Fold(vals []int) int {
	if len(vals) == 0 {
		panic("partition: Fold of empty tuple")
	}
	cur := append([]int(nil), vals...)
	for len(cur) > 1 {
		for i := 0; i+1 < len(cur); i++ {
			cur[i] = e.Apply(cur[i], cur[i+1])
		}
		cur = cur[:len(cur)-1]
	}
	return cur[0]
}

// InitialLabels returns label[v] = address of v (Match1 step 1).
func InitialLabels(l *list.List) []int {
	lab := make([]int, l.Len())
	for i := range lab {
		lab[i] = i
	}
	return lab
}

// Discipline selects the memory-access discipline a parallel
// application of f adheres to — the EREW/CREW distinction the paper
// tracks throughout (Match2 is its EREW algorithm; the CRCW results
// need concurrent access).
type Discipline int

const (
	// DisciplineEREW uses an auxiliary copy round so every cell has a
	// single reader per step: 2⌈n/p⌉ time per application.
	DisciplineEREW Discipline = iota
	// DisciplineCREW reads each successor's label concurrently with its
	// owner: 1⌈n/p⌉ time per application (a cell is read by its own
	// node and by its predecessor in the same round).
	DisciplineCREW
)

// String names the discipline.
func (d Discipline) String() string {
	if d == DisciplineEREW {
		return "erew"
	}
	return "crew"
}

// Step performs one parallel application of the matching partition
// function: label'[v] = f(⟨label[v], label[suc(v)]⟩), with the tail
// using the head's label as pseudo-successor, exactly as §2 prescribes
// ("if a is the last element in the list, define f(a, suc(a)) = f(a, b)
// where b is the first element").
//
// The implementation is EREW-legal: round one copies the labels into an
// auxiliary array; round two has each node read its own label and its
// successor's copy (each aux cell has exactly one reader because list
// in-degrees are one; the head's aux cell is read only by the tail).
// Cost: 2⌈n/p⌉ time, 2n work.
//
// The result is written into out (which must not alias lab) and
// returned; pass nil to allocate.
func Step(m *pram.Machine, l *list.List, e *Evaluator, lab, aux, out []int) []int {
	return StepWith(m, l, e, DisciplineEREW, lab, aux, out)
}

// StepWith is Step under an explicit access discipline. The CREW
// variant skips the auxiliary copy (cost ⌈n/p⌉ time, n work); labels
// are still double-buffered into out, so both disciplines compute
// identical values — tests assert this, and the discipline ablation
// bench measures the 2× round cost EREW pays for exclusive reads.
func StepWith(m *pram.Machine, l *list.List, e *Evaluator, d Discipline, lab, aux, out []int) []int {
	n := l.Len()
	if len(lab) != n {
		panic("partition: Step label length mismatch")
	}
	if out == nil {
		out = make([]int, n)
	}
	head := l.Head
	if d == DisciplineCREW {
		m.ParFor(n, func(v int) {
			s := l.Next[v]
			if s == list.Nil {
				s = head
			}
			out[v] = e.Apply(lab[v], lab[s])
		})
		return out
	}
	if aux == nil {
		aux = make([]int, n)
	}
	m.ParFor(n, func(v int) { aux[v] = lab[v] })
	m.ParFor(n, func(v int) {
		s := l.Next[v]
		if s == list.Nil {
			s = head
		}
		out[v] = e.Apply(lab[v], aux[s])
	})
	return out
}

// Iterate applies Step k times (Lemma 2 / Match1 step 2), returning the
// final labels. Each application shrinks the label range per NextRange.
func Iterate(m *pram.Machine, l *list.List, e *Evaluator, k int) []int {
	return IterateWith(m, l, e, k, DisciplineEREW)
}

// IterateWith is Iterate under an explicit access discipline. All k
// applications (and the aux-copy rounds EREW inserts) run as one fused
// dispatch group on the pooled executor.
func IterateWith(m *pram.Machine, l *list.List, e *Evaluator, k int, d Discipline) []int {
	n := l.Len()
	w := m.Workspace()
	// Label and double buffers come from the machine's workspace when
	// one is attached; every cell is written before it is read (lab by
	// the address init, aux by the copy round, out by the apply round).
	lab := ws.IntsNoZero(w, n)
	for i := range lab {
		lab[i] = i // Match1 step 1: label[v] := address of v
	}
	var aux []int
	if d == DisciplineEREW {
		aux = ws.IntsNoZero(w, n)
	}
	out := ws.IntsNoZero(w, n)
	m.Batch(func() {
		for i := 0; i < k; i++ {
			out = StepWith(m, l, e, d, lab, aux, out)
			lab, out = out, lab
		}
	})
	return lab
}

// DistinctCount returns the number of distinct labels among the pointer
// labels (all nodes except the tail — the tail's label belongs to a
// pseudo-pointer). Used by experiments E1/E2 to compare measured set
// counts against the lemma bounds.
func DistinctCount(l *list.List, lab []int) int {
	seen := make(map[int]struct{}, 64)
	for v, nx := range l.Next {
		if nx == list.Nil {
			continue
		}
		seen[lab[v]] = struct{}{}
	}
	return len(seen)
}

// Verify checks the matching partition property on the list: for every
// pair of consecutive pointers ⟨v,suc(v)⟩ and ⟨suc(v),suc(suc(v))⟩, the
// labels differ (so equal-labelled pointers never share a node).
func Verify(l *list.List, lab []int) error {
	for v, s := range l.Next {
		if s == list.Nil || l.Next[s] == list.Nil {
			continue
		}
		if lab[v] == lab[s] {
			return fmt.Errorf("partition: pointers out of %d and %d share label %d", v, s, lab[v])
		}
	}
	return nil
}

// MaxLabel returns the maximum pointer label (excluding the tail's
// pseudo-label).
func MaxLabel(l *list.List, lab []int) int {
	max := 0
	for v, nx := range l.Next {
		if nx == list.Nil {
			continue
		}
		if lab[v] > max {
			max = lab[v]
		}
	}
	return max
}
