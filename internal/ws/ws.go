// Package ws provides the size-bucketed workspace arena behind the
// engine's zero-allocation request path. Algorithms that used to call
// make for per-run scratch (partition label buffers, Match4's column
// buffers, counting-sort counters, contraction survivor lists, …) draw
// those slices from a Workspace instead; the engine resets the
// workspace between requests, so in steady state every request reuses
// the buffers of its predecessors and the hot path performs no heap
// allocations at all.
//
// The arena is epoch-based rather than malloc/free-based: Ints/Bools
// move a slice from the bucket's free list to its used list, and Reset
// moves every used slice back — there is no per-slice release call, so
// algorithms never have to reason about ownership mid-request. Two
// consequences follow:
//
//   - a slice obtained from a Workspace is valid only until the next
//     Reset; anything that must outlive the request (a Result's output
//     arrays) has to be copied out by the caller that resets;
//   - memory within one request is additive — a loop that acquires a
//     fresh buffer per round holds all of them until Reset. The
//     algorithms that loop (rank contraction) shrink geometrically, so
//     this stays O(n).
//
// A Workspace is not safe for concurrent use; the engine serializes
// requests onto its machine and workspace together.
package ws

import (
	stdbits "math/bits"
	"unsafe"
)

// maxBuckets covers slice lengths up to 2^47 — far beyond anything a
// simulated machine can hold; bucket b stores capacity-2^b slices.
const maxBuckets = 48

// maxFreePerBucket caps how many same-sized buffers a bucket retains
// across Reset, bounding the arena's footprint when one oversized
// request would otherwise pin its peak forever. It is sized above the
// largest same-bucket working set of any algorithm here (Match4's
// runner holds ~14 n-sized slices at once), so steady-state traffic
// never re-allocates.
const maxFreePerBucket = 32

// Stats counts arena activity; read it through Workspace.Stats or the
// engine's cumulative counters.
type Stats struct {
	// Gets counts buffer acquisitions; Hits of them were served from a
	// free list, Misses allocated fresh. A warmed-up engine shows
	// Misses frozen while Gets grows.
	Gets, Hits, Misses uint64
	// BytesAllocated totals the bytes of fresh allocations (misses).
	BytesAllocated uint64
	// Resets counts epoch resets (one per engine request).
	Resets uint64
}

// buckets is a per-element-type family of power-of-two free/used lists.
type buckets[T any] struct {
	free [maxBuckets][][]T
	used [maxBuckets][][]T
}

// bucketOf returns the bucket index whose capacity 2^b fits n (n ≥ 1).
func bucketOf(n int) int { return stdbits.Len(uint(n - 1)) }

// get acquires a slice of length n, preferring the bucket's free list.
func get[T any](st *Stats, b *buckets[T], n int) []T {
	st.Gets++
	bi := bucketOf(n)
	var s []T
	if k := len(b.free[bi]); k > 0 {
		s = b.free[bi][k-1]
		b.free[bi][k-1] = nil
		b.free[bi] = b.free[bi][:k-1]
		st.Hits++
	} else {
		s = make([]T, 1<<bi)
		st.Misses++
		var z T
		st.BytesAllocated += uint64(unsafe.Sizeof(z)) << bi
	}
	b.used[bi] = append(b.used[bi], s)
	return s[:n]
}

// reset moves every used slice back to its free list, dropping the
// overflow beyond maxFreePerBucket for the collector.
func (b *buckets[T]) reset() {
	for bi := range b.used {
		u := b.used[bi]
		if len(u) == 0 {
			continue
		}
		f := b.free[bi]
		for i, s := range u {
			if len(f) < maxFreePerBucket {
				f = append(f, s)
			}
			u[i] = nil
		}
		b.free[bi] = f
		b.used[bi] = u[:0]
	}
}

// Workspace is one engine's scratch arena: bucketed free lists for the
// int, bool and bitset-word slices the algorithms consume.
type Workspace struct {
	ints  buckets[int]
	bools buckets[bool]
	words buckets[uint64]
	stats Stats
}

// New returns an empty workspace.
func New() *Workspace { return &Workspace{} }

// Ints returns a zeroed int slice of length n, valid until Reset.
func (w *Workspace) Ints(n int) []int {
	if n <= 0 {
		return nil
	}
	s := get(&w.stats, &w.ints, n)
	clear(s)
	return s
}

// IntsNoZero is Ints without the clear, for buffers every element of
// which the caller overwrites before reading. Contents are arbitrary.
func (w *Workspace) IntsNoZero(n int) []int {
	if n <= 0 {
		return nil
	}
	return get(&w.stats, &w.ints, n)
}

// Bools returns a zeroed bool slice of length n, valid until Reset.
func (w *Workspace) Bools(n int) []bool {
	if n <= 0 {
		return nil
	}
	s := get(&w.stats, &w.bools, n)
	clear(s)
	return s
}

// BoolsNoZero is Bools without the clear, for buffers the caller fully
// overwrites (or clears chunk-parallel, as the native kernels do)
// before reading. Contents are arbitrary.
func (w *Workspace) BoolsNoZero(n int) []bool {
	if n <= 0 {
		return nil
	}
	return get(&w.stats, &w.bools, n)
}

// Words returns a zeroed uint64 slice of length n, valid until Reset:
// bitset scratch, one bit per node.
func (w *Workspace) Words(n int) []uint64 {
	if n <= 0 {
		return nil
	}
	s := get(&w.stats, &w.words, n)
	clear(s)
	return s
}

// Reset starts a new epoch: every slice handed out since the previous
// Reset returns to its free list and must no longer be used.
func (w *Workspace) Reset() {
	w.stats.Resets++
	w.ints.reset()
	w.bools.reset()
	w.words.reset()
}

// Stats returns a snapshot of the arena counters.
func (w *Workspace) Stats() Stats { return w.stats }

// The package-level helpers below are what the algorithm packages call:
// they fall back to plain make when no workspace is attached, so every
// existing call path (tests, benchmarks, direct library use) keeps its
// exact allocation semantics, and only machines owned by an engine hit
// the arena.

// Ints returns a zeroed int slice of length n from w, or make(n) when
// w is nil.
func Ints(w *Workspace, n int) []int {
	if w == nil {
		return make([]int, n)
	}
	return w.Ints(n)
}

// IntsNoZero returns an int slice of length n with arbitrary contents
// from w, or make(n) (zeroed, as always) when w is nil.
func IntsNoZero(w *Workspace, n int) []int {
	if w == nil {
		return make([]int, n)
	}
	return w.IntsNoZero(n)
}

// Bools returns a zeroed bool slice of length n from w, or make(n)
// when w is nil.
func Bools(w *Workspace, n int) []bool {
	if w == nil {
		return make([]bool, n)
	}
	return w.Bools(n)
}

// BoolsNoZero returns a bool slice of length n with arbitrary contents
// from w, or make(n) (zeroed, as always) when w is nil.
func BoolsNoZero(w *Workspace, n int) []bool {
	if w == nil {
		return make([]bool, n)
	}
	return w.BoolsNoZero(n)
}
