// Package bits provides the bit-manipulation substrate used by the
// matching partition algorithms: most/least significant set-bit
// extraction, the unary→binary conversion of the paper's appendix (both
// as a built-in "instruction" and as the faithful lookup-table scheme),
// bit-reversal permutation tables, the iterated logarithm log^(i) n, and
// G(n) = min{k : log^(k) n < 1}.
//
// All functions operate on non-negative int values; the paper's node
// addresses and labels are always in [0, n).
package bits

import (
	"fmt"
	mathbits "math/bits"
)

// log2DomainError is Log2's panic value on a non-positive argument. A
// typed value instead of a formatted string keeps Log2, MSB and MSB's
// hot caller partition.F within the compiler's inlining budget; Error
// formats the message.
type log2DomainError int

func (x log2DomainError) Error() string {
	return fmt.Sprintf("bits: Log2 of non-positive value %d", int(x))
}

// Log2 returns ⌊log₂ x⌋ for x ≥ 1. It panics for x ≤ 0 because the
// paper's uses (MSB of a XOR b with a ≠ b) never produce such inputs.
func Log2(x int) int {
	if x <= 0 {
		panic(log2DomainError(x))
	}
	return mathbits.Len(uint(x)) - 1
}

// CeilLog2 returns ⌈log₂ x⌉ for x ≥ 1; CeilLog2(1) = 0.
func CeilLog2(x int) int {
	if x <= 0 {
		panic(fmt.Sprintf("bits: CeilLog2 of non-positive value %d", x))
	}
	if x == 1 {
		return 0
	}
	return mathbits.Len(uint(x - 1))
}

// MSB returns the index of the most significant 1-bit of x (bits counted
// from the least significant bit starting with 0), i.e. ⌊log₂ x⌋.
func MSB(x int) int { return Log2(x) }

// LSB returns the index of the least significant 1-bit of x.
func LSB(x int) int {
	if x <= 0 {
		panic(fmt.Sprintf("bits: LSB of non-positive value %d", x))
	}
	return mathbits.TrailingZeros(uint(x))
}

// Bit returns bit k of x (0 or 1).
func Bit(x, k int) int { return (x >> uint(k)) & 1 }

// LogIterF is the real-valued iterated logarithm used for bound
// predictions: logIter(n, 0) = n, logIter(n, i) = log₂(logIter(n, i-1)).
// It returns the value as float64 and is defined as long as every
// intermediate value stays positive; otherwise it returns 0.
func LogIterF(n float64, i int) float64 {
	v := n
	for k := 0; k < i; k++ {
		if v <= 0 {
			return 0
		}
		v = log2f(v)
	}
	return v
}

func log2f(x float64) float64 {
	// Minimal log2 without importing math: use math/bits on the integer
	// part plus a small fractional refinement. Precision here only feeds
	// bound *predictions*, not algorithm correctness, but we still use a
	// proper series for sanity. Newton on 2^y = x.
	if x <= 0 {
		return 0
	}
	// Integer part.
	ip := 0
	v := x
	for v >= 2 {
		v /= 2
		ip++
	}
	for v < 1 {
		v *= 2
		ip--
	}
	// v in [1,2): binary digits of the fraction.
	frac := 0.0
	add := 0.5
	for k := 0; k < 52; k++ {
		v *= v
		if v >= 2 {
			frac += add
			v /= 2
		}
		add /= 2
	}
	return float64(ip) + frac
}

// LogIter returns ⌈log^(i) n⌉ computed over integers the way the
// appendix evaluates it: i successive applications of the integer
// logarithm (MSB position of the remaining value). LogIter(n, 0) = n.
// When an intermediate value reaches 1 the next logarithm is 0 and the
// iteration stops there (further applications stay 0).
func LogIter(n, i int) int {
	v := n
	for k := 0; k < i; k++ {
		if v <= 1 {
			return 0
		}
		v = CeilLog2(v)
	}
	return v
}

// G returns G(n) = min{k : log^(k) n < 1}, the paper's definition with
// log^(k) the iterated base-2 logarithm. G is the number of times the
// logarithm must be applied before the value drops below 1 — the usual
// log* up to an additive constant. G(1) = 1 (a single application of
// log gives 0 < 1). n must be ≥ 1.
func G(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("bits: G of value %d < 1", n))
	}
	v := float64(n)
	k := 0
	for {
		k++
		v = log2f(v)
		if v < 1 {
			return k
		}
		if k > 64 {
			panic("bits: G did not converge")
		}
	}
}

// LogG returns ⌈log₂ G(n)⌉, the quantity Match3 uses as its doubling
// count; LogG(n) ≥ 1 for all n ≥ 2 so that at least one concatenation
// round happens.
func LogG(n int) int {
	g := G(n)
	l := CeilLog2(g)
	if l < 1 {
		l = 1
	}
	return l
}

// Reverse returns the w-bit reversal of x: bit k of the result is bit
// w-1-k of x. Used by the appendix to turn the LSB scheme into the MSB
// scheme ("a bit reversal permutation table").
func Reverse(x, w int) int {
	r := 0
	for k := 0; k < w; k++ {
		r = (r << 1) | ((x >> uint(k)) & 1)
	}
	return r
}
