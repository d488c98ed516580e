package pram

import (
	"fmt"
	"strings"
	"sync"

	"parlist/internal/obs"
)

// RoundKind labels the synchronous primitive a trace entry records.
type RoundKind int

const (
	// KindParFor is a ParFor / ParForCost round.
	KindParFor RoundKind = iota
	// KindProc is a ProcFor / ProcRun round.
	KindProc
	// KindCharge is an analytic Charge.
	KindCharge
)

// String names the kind.
func (k RoundKind) String() string {
	switch k {
	case KindParFor:
		return "parfor"
	case KindProc:
		return "proc"
	case KindCharge:
		return "charge"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// TraceEntry records one synchronous primitive.
type TraceEntry struct {
	Phase string
	Kind  RoundKind
	Items int   // ParFor item count, or processor count for Proc rounds
	Time  int64 // steps charged
	Work  int64 // work charged
}

// Tracer collects a round-level log of a machine's execution from its
// round and charge events. Attach it with WithObserver before running
// an algorithm (or as an engine's or pool's Observer); render with
// Summary or Gantt. It is safe for several machines at once, though
// their rounds then interleave in the log.
type Tracer struct {
	mu      sync.Mutex
	entries []TraceEntry
}

// Observe implements obs.Observer: it records round and charge events
// and returns at once on every other kind.
func (t *Tracer) Observe(e obs.Event) {
	var k RoundKind
	switch e.Kind {
	case obs.KindParFor:
		k = KindParFor
	case obs.KindProc:
		k = KindProc
	case obs.KindCharge:
		k = KindCharge
	default:
		return
	}
	t.mu.Lock()
	t.entries = append(t.entries, TraceEntry{Phase: e.Name, Kind: k, Items: e.N, Time: e.Time, Work: e.Work})
	t.mu.Unlock()
}

// Entries returns the recorded rounds.
func (t *Tracer) Entries() []TraceEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries
}

// Summary renders a per-phase table: rounds, time, work, and the share
// of total time.
func (t *Tracer) Summary() string {
	type agg struct {
		rounds int
		time   int64
		work   int64
	}
	order := []string{}
	phases := map[string]*agg{}
	var total int64
	entries := t.Entries()
	for _, e := range entries {
		a := phases[e.Phase]
		if a == nil {
			a = &agg{}
			phases[e.Phase] = a
			order = append(order, e.Phase)
		}
		a.rounds++
		a.time += e.Time
		a.work += e.Work
		total += e.Time
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %12s %14s %7s\n", "phase", "rounds", "time", "work", "share")
	for _, name := range order {
		a := phases[name]
		share := 0.0
		if total > 0 {
			share = 100 * float64(a.time) / float64(total)
		}
		fmt.Fprintf(&b, "%-16s %8d %12d %14d %6.1f%%\n", name, a.rounds, a.time, a.work, share)
	}
	fmt.Fprintf(&b, "%-16s %8d %12d\n", "total", len(entries), total)
	return b.String()
}

// Gantt renders a proportional time bar per phase (width columns).
func (t *Tracer) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	type seg struct {
		name string
		time int64
	}
	var segs []seg
	var total int64
	for _, e := range t.Entries() {
		if len(segs) > 0 && segs[len(segs)-1].name == e.Phase {
			segs[len(segs)-1].time += e.Time
		} else {
			segs = append(segs, seg{name: e.Phase, time: e.Time})
		}
		total += e.Time
	}
	if total == 0 {
		return "(no time recorded)\n"
	}
	var b strings.Builder
	for _, s := range segs {
		w := int(int64(width) * s.time / total)
		if w < 1 {
			w = 1
		}
		fmt.Fprintf(&b, "%-16s |%s| %d\n", s.name, strings.Repeat("#", w), s.time)
	}
	return b.String()
}
