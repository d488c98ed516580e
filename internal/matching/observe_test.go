package matching_test

import (
	"reflect"
	"testing"

	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/obs"
	"parlist/internal/pram"
)

// nopObserver is an observer with an empty body: the cheapest possible
// observer, used to isolate the effect of merely attaching one.
type nopObserver struct{}

func (nopObserver) Observe(obs.Event) {}

// runAll runs every matching algorithm on one machine and returns the
// accumulated Stats plus the matchings (to confirm outputs, not just
// accounting, are unaffected).
func runAll(t *testing.T, m *pram.Machine, l *list.List) (pram.Stats, [][]bool) {
	t.Helper()
	var outs [][]bool
	outs = append(outs, matching.Match1(m, l, nil).In)
	outs = append(outs, matching.Match2(m, l, nil).In)
	r3, err := matching.Match3(m, l, nil, matching.Match3Config{})
	if err != nil {
		t.Fatalf("match3: %v", err)
	}
	outs = append(outs, r3.In)
	r4, err := matching.Match4(m, l, nil, matching.Match4Config{I: 3})
	if err != nil {
		t.Fatalf("match4: %v", err)
	}
	outs = append(outs, r4.In)
	return m.Snapshot(), outs
}

// TestStatsIdenticalWithObserverAllAlgorithms is the acceptance-level
// equivalence test: on every executor, running the full algorithm suite
// with an Observer attached yields Stats (and matchings) bit-identical
// to the unobserved run. Observation is a wall-clock side channel only.
func TestStatsIdenticalWithObserverAllAlgorithms(t *testing.T) {
	l := list.RandomList(2048, 7)
	for _, ex := range []pram.Exec{pram.Sequential, pram.Pooled} {
		t.Run(ex.String(), func(t *testing.T) {
			plain := pram.New(16, pram.WithExec(ex), pram.WithWorkers(4))
			defer plain.Close()
			observed := pram.New(16, pram.WithExec(ex), pram.WithWorkers(4),
				pram.WithObserver(nopObserver{}))
			defer observed.Close()

			sa, oa := runAll(t, plain, l)
			sb, ob := runAll(t, observed, l)
			observed.FlushSpans()

			if !reflect.DeepEqual(sa, sb) {
				t.Errorf("Stats diverge under observation:\n  off: %+v\n  on:  %+v", sa, sb)
			}
			if !reflect.DeepEqual(oa, ob) {
				t.Error("matchings diverge under observation")
			}
		})
	}
}

// TestTracerPooledRoundAttribution (satellite) proves the Tracer's
// round-by-round attribution is executor-independent: the same
// algorithm traced under Pooled yields entry-for-entry identical
// Phase/Kind/Items/Time/Work logs as under Sequential. Rounds are
// recorded by the coordinator in program order in both cases, so
// parallel dispatch must not reorder, split, or re-attribute them.
func TestTracerPooledRoundAttribution(t *testing.T) {
	l := list.RandomList(4096, 11)
	run := func(ex pram.Exec) []pram.TraceEntry {
		var tr pram.Tracer
		m := pram.New(16, pram.WithExec(ex), pram.WithWorkers(4), pram.WithObserver(&tr))
		defer m.Close()
		if _, err := matching.Match4(m, l, nil, matching.Match4Config{I: 3}); err != nil {
			t.Fatalf("%v: %v", ex, err)
		}
		m.Phase("m2")
		matching.Match2(m, l, nil)
		return tr.Entries()
	}
	seq := run(pram.Sequential)
	pooled := run(pram.Pooled)
	if len(seq) == 0 {
		t.Fatal("sequential trace is empty")
	}
	if !reflect.DeepEqual(seq, pooled) {
		limit := len(seq)
		if len(pooled) < limit {
			limit = len(pooled)
		}
		for i := 0; i < limit; i++ {
			if seq[i] != pooled[i] {
				t.Fatalf("trace diverges at round %d:\n  seq:    %+v\n  pooled: %+v", i, seq[i], pooled[i])
			}
		}
		t.Fatalf("trace lengths differ: seq %d, pooled %d", len(seq), len(pooled))
	}
}
