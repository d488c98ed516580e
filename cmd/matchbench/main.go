// Command matchbench runs the reproduction experiment suite (E1–E22,
// see DESIGN.md) and prints the result tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	matchbench                        # run every experiment at full scale
//	matchbench -exp E7                # one experiment
//	matchbench -quick                 # shrunken sweeps
//	matchbench -exp E16 -exec native  # serving-layer sweep on the native executor
//
// Exit status: 0 on success, 1 on a runtime failure, 2 on a usage
// error (unknown flag or experiment ID).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"parlist/internal/harness"
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
		fmt.Fprintf(os.Stderr, "matchbench: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("matchbench", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment ID to run (e.g. E7); empty = all")
	quick := fs.Bool("quick", false, "shrink the sweeps")
	seed := fs.Int64("seed", 1, "list-generation seed")
	check := fs.Bool("verify", false, "re-check experiment outputs with the independent verifiers")
	execFlag := fs.String("exec", "", "override the serving-layer experiments' executor (E16, E17, E20, E21, E22): sequential|pooled|native")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	cfg := harness.Config{Quick: *quick, Seed: *seed, Verify: *check}
	if *execFlag != "" {
		exec, err := pram.ParseExec(*execFlag)
		if err != nil {
			return usageError{err}
		}
		cfg.Exec, cfg.ExecSet = exec, true
	}
	var suite []harness.Experiment
	if *exp == "" {
		suite = harness.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				return usagef("unknown experiment %q", id)
			}
			suite = append(suite, e)
		}
	}
	for _, e := range suite {
		fmt.Fprintf(out, "### %s: %s\n\n", e.ID, e.Title)
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.ID, err)
		}
		for _, t := range tables {
			fmt.Fprintln(out, t.String())
		}
	}
	return nil
}
