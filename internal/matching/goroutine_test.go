// Executor equivalence: every algorithm must produce bit-identical
// results AND bit-identical accounting (Time, Work, per-phase stats)
// under the sequential executor and the persistent pooled executor with
// fused-round dispatch. The package is external (matching_test) so the
// suite can also cover list ranking, which imports matching.
package matching_test

import (
	"reflect"
	"testing"

	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/verify"
)

var equivExecs = []pram.Exec{pram.Sequential, pram.Pooled}

// TestExecutorEquivalenceMatching runs Match1–Match4 (all routes) under
// both simulated executors on the same randomized input, asserting
// identical matchings and accounting.
func TestExecutorEquivalenceMatching(t *testing.T) {
	n := 30000
	l := list.RandomList(n, 77)
	type algo struct {
		name string
		run  func(m *pram.Machine) (*matching.Result, error)
	}
	algos := []algo{
		{"match1", func(m *pram.Machine) (*matching.Result, error) { return matching.Match1(m, l, nil), nil }},
		{"match2", func(m *pram.Machine) (*matching.Result, error) { return matching.Match2(m, l, nil), nil }},
		{"match3", func(m *pram.Machine) (*matching.Result, error) {
			return matching.Match3(m, l, nil, matching.Match3Config{})
		}},
		{"match4", func(m *pram.Machine) (*matching.Result, error) {
			return matching.Match4(m, l, nil, matching.Match4Config{I: 3})
		}},
		{"match4-table", func(m *pram.Machine) (*matching.Result, error) {
			return matching.Match4(m, l, nil, matching.Match4Config{I: 4, UseTable: true})
		}},
		{"match4-coloring", func(m *pram.Machine) (*matching.Result, error) {
			return matching.Match4(m, l, nil, matching.Match4Config{I: 2, ViaColoring: true})
		}},
	}
	for _, a := range algos {
		var ref *matching.Result
		for _, exec := range equivExecs {
			m := pram.New(64, pram.WithExec(exec), pram.WithWorkers(4))
			r, err := a.run(m)
			m.Close()
			if err != nil {
				t.Fatalf("%s %v: %v", a.name, exec, err)
			}
			if err := matching.Verify(l, r.In); err != nil {
				t.Errorf("%s %v: %v", a.name, exec, err)
			}
			if err := verify.MaximalMatching(l, r.In); err != nil {
				t.Errorf("%s %v: independent checker: %v", a.name, exec, err)
			}
			if exec == pram.Sequential {
				ref = r
				continue
			}
			if r.Stats.Time != ref.Stats.Time || r.Stats.Work != ref.Stats.Work {
				t.Errorf("%s %v: accounting diverged: %d/%d vs sequential %d/%d",
					a.name, exec, r.Stats.Time, r.Stats.Work, ref.Stats.Time, ref.Stats.Work)
			}
			if !reflect.DeepEqual(r.Stats.Phases, ref.Stats.Phases) {
				t.Errorf("%s %v: phase stats diverged:\n%+v\nvs sequential\n%+v",
					a.name, exec, r.Stats.Phases, ref.Stats.Phases)
			}
			if !reflect.DeepEqual(r.In, ref.In) {
				t.Errorf("%s %v: matching differs from sequential executor", a.name, exec)
			}
		}
	}
}

// TestExecutorEquivalenceRank runs contraction ranking and Wyllie (the
// fused pointer-jumping hot loop) under both simulated executors.
func TestExecutorEquivalenceRank(t *testing.T) {
	n := 20000
	l := list.RandomList(n, 99)
	type run struct {
		ranks []int
		stats pram.Stats
	}
	for _, scheme := range []string{"contraction", "wyllie"} {
		var ref run
		for _, exec := range equivExecs {
			m := pram.New(64, pram.WithExec(exec), pram.WithWorkers(4))
			var rk []int
			var err error
			if scheme == "contraction" {
				rk, _, err = rank.Rank(m, l, nil)
			} else {
				rk = rank.WyllieRank(m, l)
			}
			if err != nil {
				t.Fatalf("%s %v: %v", scheme, exec, err)
			}
			got := run{ranks: rk, stats: m.Snapshot()}
			m.Close()
			if err := verify.Ranks(l, rk); err != nil {
				t.Errorf("%s %v: independent checker: %v", scheme, exec, err)
			}
			if exec == pram.Sequential {
				ref = got
				continue
			}
			if got.stats.Time != ref.stats.Time || got.stats.Work != ref.stats.Work {
				t.Errorf("%s %v: accounting diverged: %d/%d vs sequential %d/%d",
					scheme, exec, got.stats.Time, got.stats.Work, ref.stats.Time, ref.stats.Work)
			}
			if !reflect.DeepEqual(got.stats.Phases, ref.stats.Phases) {
				t.Errorf("%s %v: phase stats diverged", scheme, exec)
			}
			if !reflect.DeepEqual(got.ranks, ref.ranks) {
				t.Errorf("%s %v: ranks differ from sequential executor", scheme, exec)
			}
		}
	}
}

// TestExecutorEquivalencePartition covers the fused Iterate loop on its
// own, under both access disciplines.
func TestExecutorEquivalencePartition(t *testing.T) {
	n := 50000
	l := list.RandomList(n, 41)
	e := partition.NewEvaluator(partition.MSB, 24)
	for _, d := range []partition.Discipline{partition.DisciplineEREW, partition.DisciplineCREW} {
		var refLab []int
		var refTime, refWork int64
		for _, exec := range equivExecs {
			m := pram.New(256, pram.WithExec(exec), pram.WithWorkers(4))
			lab := partition.IterateWith(m, l, e, 3, d)
			tm, wk := m.Time(), m.Work()
			m.Close()
			if err := verify.Partition(l, lab, 0); err != nil {
				t.Errorf("%v %v: independent checker: %v", d, exec, err)
			}
			if exec == pram.Sequential {
				refLab, refTime, refWork = lab, tm, wk
				continue
			}
			if tm != refTime || wk != refWork {
				t.Errorf("%v %v: accounting diverged: %d/%d vs %d/%d", d, exec, tm, wk, refTime, refWork)
			}
			if !reflect.DeepEqual(lab, refLab) {
				t.Errorf("%v %v: labels differ from sequential executor", d, exec)
			}
		}
	}
}
