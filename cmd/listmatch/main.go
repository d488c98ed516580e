// Command listmatch computes a maximal matching of a generated linked
// list with a chosen algorithm and prints the PRAM accounting; with
// -render it also draws the Fig.-2 bisecting-line view of the pointers.
//
// Usage:
//
//	listmatch -n 1048576 -p 4096 -algo match4 -i 3
//	listmatch -n 16 -gen zigzag -render
//	listmatch -n 100000 -exec pooled -verify
//	listmatch -n 1048576 -exec native   # fast-path kernels, zero simulated cost
//
// Exit status: 0 on success, 1 on a runtime or verification failure,
// 2 on a usage error (bad flag value, unknown generator/executor).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"parlist"
	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/verify"
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
		fmt.Fprintf(os.Stderr, "listmatch: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("listmatch", flag.ContinueOnError)
	n := fs.Int("n", 1<<16, "list size")
	p := fs.Int("p", 256, "simulated PRAM processors")
	algo := fs.String("algo", "match4", "algorithm: match1|match2|match3|match4|sequential|randomized")
	i := fs.Int("i", 3, "Match4 adjustable parameter i")
	gen := fs.String("gen", "random", "generator: random|sequential|reversed|zigzag|blocked")
	seed := fs.Int64("seed", 1, "generator seed")
	useTable := fs.Bool("table", false, "use the Lemma 5 table partition in Match4")
	execFlag := fs.String("exec", "sequential", "executor: sequential|pooled|native")
	render := fs.Bool("render", false, "draw the bisecting-line view (small n)")
	trace := fs.Bool("trace", false, "print a round-level trace summary and Gantt bar")
	load := fs.String("load", "", "read the list from a file written with -save instead of generating")
	save := fs.String("save", "", "write the generated list to a file (binary format)")
	check := fs.Bool("verify", false, "re-check the matching with the independent verifier and print PASS/FAIL")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *load == "" && *n < 1 {
		return usagef("-n must be >= 1 (got %d)", *n)
	}
	if *p < 1 {
		return usagef("-p must be >= 1 (got %d)", *p)
	}
	if *i < 1 {
		return usagef("-i must be >= 1 (got %d)", *i)
	}

	var l *list.List
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return usageError{err}
		}
		l, err = list.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", *load, err)
		}
		*n = l.Len()
	} else {
		for _, g := range list.Generators() {
			if g.Name == *gen {
				l = g.Make(*n, *seed)
			}
		}
		if l == nil {
			return usagef("unknown generator %q", *gen)
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if _, err := l.WriteTo(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", *save, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "list saved to %s\n", *save)
	}
	if *render {
		fmt.Fprint(out, l.RenderBisection())
	}

	exec, err := pram.ParseExec(*execFlag)
	if err != nil {
		return usageError{err}
	}
	if *trace && exec == pram.Native {
		return usagef("-trace needs the simulated round stream, which the native executor's fast-path kernels bypass; use -exec pooled or -exec sequential")
	}
	var tracer *pram.Tracer
	if *trace {
		tracer = &pram.Tracer{}
	}
	res, err := parlist.MaximalMatching(l, parlist.Options{
		Algorithm:  parlist.Algorithm(*algo),
		Processors: *p,
		I:          *i,
		UseTable:   *useTable,
		Exec:       exec,
		Seed:       *seed,
		Tracer:     tracer,
	})
	if err != nil {
		return err
	}
	if err := parlist.Verify(l, res.In); err != nil {
		return fmt.Errorf("verification FAILED: %w", err)
	}

	fmt.Fprintf(out, "algorithm   %s\n", res.Detail.Algorithm)
	fmt.Fprintf(out, "n           %d pointers %d\n", *n, l.PointerCount())
	fmt.Fprintf(out, "matched     %d (%.1f%% of pointers)\n", res.Size, 100*float64(res.Size)/float64(l.PointerCount()))
	fmt.Fprintf(out, "processors  %d\n", res.Stats.Processors)
	fmt.Fprintf(out, "PRAM time   %d steps\n", res.Stats.Time)
	fmt.Fprintf(out, "PRAM work   %d ops\n", res.Stats.Work)
	fmt.Fprintf(out, "efficiency  %.3f (vs sequential T1 = n)\n", res.Stats.Efficiency(int64(*n)))
	if res.Detail.Sets > 0 {
		fmt.Fprintf(out, "sets        %d matching sets from the partition stage\n", res.Detail.Sets)
	}
	if res.Detail.TableSize > 0 {
		fmt.Fprintf(out, "table       %d entries\n", res.Detail.TableSize)
	}
	for _, note := range res.Stats.Notes {
		fmt.Fprintf(out, "note        %s\n", note)
	}
	fmt.Fprintln(out, "phases:")
	for _, ph := range res.Stats.Phases {
		fmt.Fprintf(out, "  %-12s time %-10d work %d\n", ph.Name, ph.Time, ph.Work)
	}
	if tracer != nil {
		fmt.Fprintln(out, "\nround trace:")
		fmt.Fprint(out, tracer.Summary())
		fmt.Fprintln(out, "\ntime profile:")
		fmt.Fprint(out, tracer.Gantt(60))
	}
	fmt.Fprintln(out, "verification: maximal matching OK")
	if *check {
		if err := verify.MaximalMatching(l, res.In); err != nil {
			fmt.Fprintln(out, "independent verification: FAIL")
			return fmt.Errorf("independent verification FAILED: %w", err)
		}
		fmt.Fprintln(out, "independent verification: PASS")
	}
	return nil
}
