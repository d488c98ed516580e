// Command listrank ranks a linked list with all four ranking schemes —
// Wyllie pointer jumping, matching-based contraction, the load-balanced
// queue scheme and randomized contraction — and compares their PRAM
// costs. All four runs share one engine, so the simulated machine, its
// worker pool and the scratch arena are reused across schemes.
//
// Usage:
//
//	listrank -n 65536 -p 512
//	listrank -n 1048576 -p 4096 -exec pooled
//	listrank -n 1048576 -exec native    # fast-path kernels, zero simulated cost
//
// Exit status: 0 on success, 1 on a runtime or verification failure,
// 2 on a usage error (bad flag value, unknown executor).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"parlist"
	"parlist/internal/list"
	"parlist/internal/pram"
)

// usageError marks failures caused by bad invocation rather than by the
// computation; they exit with status 2.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "listrank: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("listrank", flag.ContinueOnError)
	n := fs.Int("n", 1<<16, "list size")
	p := fs.Int("p", 256, "simulated PRAM processors")
	seed := fs.Int64("seed", 1, "generator seed")
	execFlag := fs.String("exec", "sequential", "executor: sequential|pooled|native")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *n < 1 {
		return usagef("-n must be >= 1 (got %d)", *n)
	}
	if *p < 1 {
		return usagef("-p must be >= 1 (got %d)", *p)
	}
	// Native serves contraction and wyllie through the native rank walker
	// (zero simulated time/work); loadbalanced and randommate
	// fall back to the simulated machine with full accounting.
	exec, err := pram.ParseExec(*execFlag)
	if err != nil {
		return usageError{err}
	}

	l := list.RandomList(*n, *seed)
	pos := l.Position()

	eng := parlist.NewEngine(parlist.EngineConfig{Processors: *p, Exec: exec})
	defer eng.Close()

	schemes := []parlist.RankScheme{
		parlist.RankWyllie, parlist.RankContraction,
		parlist.RankLoadBalanced, parlist.RankRandomMate,
	}
	fmt.Fprintf(out, "n = %d, p = %d\n", *n, *p)
	for _, scheme := range schemes {
		rk, st, err := eng.Rank(l, parlist.Options{Rank: scheme, Seed: *seed})
		if err != nil {
			return fmt.Errorf("%s: %w", scheme, err)
		}
		for v := range pos {
			if rk[v] != pos[v] {
				return fmt.Errorf("%s: rank mismatch at node %d: got %d, want %d",
					scheme, v, rk[v], pos[v])
			}
		}
		fmt.Fprintf(out, "%-13s time %-10d work %d\n", scheme, st.Time, st.Work)
	}
	es := eng.Stats()
	fmt.Fprintf(out, "all four rankings verified against list positions\n")
	fmt.Fprintf(out, "engine: %d requests on one machine, arena %d/%d buffer hits\n",
		es.Requests, es.Arena.Hits, es.Arena.Gets)
	return nil
}
