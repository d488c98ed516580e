// Package harness runs the reproduction experiments E1–E22 (E19 is
// retired; see
// DESIGN.md): each of the paper's lemmas and theorems is exercised over
// parameter sweeps and rendered as a text table comparing measured PRAM
// step counts against the paper's bounds.
package harness

import (
	"fmt"
	"strings"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// Config tunes experiment scale.
type Config struct {
	// Quick shrinks the sweeps for fast CI-style runs.
	Quick bool
	// Seed drives all list generation.
	Seed int64
	// Verify re-checks experiment outputs with the independent checkers
	// from internal/verify (matchbench -verify). The experiments already
	// validate results with the algorithm-side checkers; this adds the
	// from-first-principles pass on top.
	Verify bool
	// Exec, when ExecSet, overrides the executor behind the
	// serving-layer experiments (E16, E17, E20, E21, E22; matchbench
	// -exec). Experiments that ablate executors themselves (E11, E18)
	// ignore it, as do the simulated-cost reproductions E1–E15, whose
	// step counts are executor-independent.
	Exec    pram.Exec
	ExecSet bool
}

// exec returns the serving-layer executor: the override when set, the
// experiment's default otherwise.
func (cfg Config) exec(def pram.Exec) pram.Exec {
	if cfg.ExecSet {
		return cfg.Exec
	}
	return def
}

// checkMatching applies the independent maximal-matching checker when
// cfg.Verify is set.
func (cfg Config) checkMatching(l *list.List, in []bool) error {
	if !cfg.Verify {
		return nil
	}
	return verify.MaximalMatching(l, in)
}

// checkPartition applies the independent matching-partition checker
// when cfg.Verify is set.
func (cfg Config) checkPartition(l *list.List, lab []int) error {
	if !cfg.Verify {
		return nil
	}
	return verify.Partition(l, lab, 0)
}

// checkRanks applies the independent list-rank checker when cfg.Verify
// is set.
func (cfg Config) checkRanks(l *list.List, rk []int) error {
	if !cfg.Verify {
		return nil
	}
	return verify.Ranks(l, rk)
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Add appends a row formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Experiment is one runnable reproduction experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]*Table, error)
}

// All returns the experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Lemma 1: f partitions into ≤ 2⌈log n⌉ matching sets", Run: runE1},
		{ID: "E2", Title: "Lemma 2: f^(k) partitions into 2·log^(k-1) n (1+o(1)) sets", Run: runE2},
		{ID: "E3", Title: "Lemma 3 / Match1: O(nG(n)/p + G(n)) steps", Run: runE3},
		{ID: "E4", Title: "Lemma 4 / Match2: O(n/p + log n); sort step dominates", Run: runE4},
		{ID: "E5", Title: "Lemma 5 / Match3: O(n·logG(n)/p + logG(n)); table < n", Run: runE5},
		{ID: "E6", Title: "Lemma 7 + Corollaries: WalkDown2 schedule", Run: runE6},
		{ID: "E7", Title: "Theorems 1–2 / Match4: the complexity curve", Run: runE7},
		{ID: "E8", Title: "Optimality and crossovers across all algorithms", Run: runE8},
		{ID: "E9", Title: "Applications: 3-colouring and MIS", Run: runE9},
		{ID: "E10", Title: "List ranking: contraction vs Wyllie", Run: runE10},
		{ID: "E11", Title: "Executor ablation: sequential vs pooled", Run: runE11},
		{ID: "E12", Title: "Appendix: G(n), log G(n), table-lookup evaluation", Run: runE12},
		{ID: "E13", Title: "Remark: shuffle-graph colourings vs the log^(k-1) u lower bound", Run: runE13},
		{ID: "E14", Title: "§4 open problem: constant-range partition at p = n/G(n)", Run: runE14},
		{ID: "E15", Title: "Design-choice ablations", Run: runE15},
		{ID: "E16", Title: "Serving layer: EnginePool scaling across engines × concurrency", Run: runE16},
		{ID: "E17", Title: "Observability: queue-wait and barrier-wait imbalance across pool sizes", Run: runE17},
		{ID: "E18", Title: "Native fast-path executor vs pooled on the warm-engine path", Run: runE18},
		{ID: "E20", Title: "Sharded execution: exchange volume and balance across fan-outs", Run: runE20},
		{ID: "E21", Title: "Wire serving: coalescing batcher across batch size × max-wait × offered load", Run: runE21},
		{ID: "E22", Title: "Tracing: span-path overhead and tail-sampling funnel on the wire path", Run: runE22},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ratio formats measured/predicted; predicted 0 yields "-".
func ratio(measured, predicted int64) string {
	if predicted == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(measured)/float64(predicted))
}

// pow2s returns powers of two from 2^lo to 2^hi inclusive, stepping the
// exponent by st.
func pow2s(lo, hi, st int) []int {
	var out []int
	for e := lo; e <= hi; e += st {
		out = append(out, 1<<uint(e))
	}
	return out
}
