package harness

import (
	"fmt"
	"runtime"
	"time"

	"parlist/internal/list"
	"parlist/internal/load"
	"parlist/internal/obs"
	"parlist/internal/server"
)

// runE22 measures end-to-end request tracing on the serving path: the
// wire-path workload of E21 (flat-out rank requests through the
// coalescing batcher, batch=8) repeated across tracing configurations,
// from tracing disabled through head-sampling every request at tail
// keep rates 1.0 down to 0.01.
//
// Signals per cell:
//
//   - achieved/s and overhead: the throughput cost of the span path.
//     The acceptance bound is ≤ 3% ns/op over the untraced control at
//     full head sampling — on a 1-CPU host the run-to-run noise of
//     identical configs is of the same order, so the recorded overhead
//     is a noise-floor measurement, not a precise tax (the
//     deterministic guard — tracing adds zero allocations with no
//     collector attached — is pinned by TestTraceDetachedZeroAlloc).
//   - roots/kept: the tail-sampling funnel. Every trace completes a
//     root (roots ≈ served requests); the kept count follows the keep
//     rate plus the always-keep rules (cold-start, errors, slow tail),
//     and the ring bound caps what /debug/traces can return.
//   - ring spans: memory actually held — bounded by 16 stripes × 32
//     traces regardless of traffic, the no-unbounded-growth guarantee.
//   - p50/p99: client-observed latency from the cell's start, when
//     every request is due, to the response; a request that waits in
//     Submit at the connection's frame cap counts that wait.
func runE22(cfg Config) ([]*Table, error) {
	n := 4096
	requests := 2000
	keeps := []float64{1, 0.1, 0.01}
	if cfg.Quick {
		n = 512
		requests = 150
		keeps = []float64{1, 0.1}
	}
	l := list.RandomList(n, cfg.Seed)
	due := load.Even(requests, 0) // flat out: every request is due at the cell's start

	t := &Table{
		Title: fmt.Sprintf("E22 — end-to-end tracing: overhead and tail-sampling funnel, rank n=%d, batch=8, 2 engines, GOMAXPROCS = %d",
			n, runtime.GOMAXPROCS(0)),
		Note: "flat-out rank requests over the binary framing; trace cells head-sample every request and " +
			"record the full inbox→batch→queue→engine span tree into the tail-sampling recorder — " +
			"overhead is ns/op versus the untraced control (≤ 3% acceptance bound, host noise is the same " +
			"order on 1 CPU), kept/roots is the tail-sampling funnel, ring spans the bounded memory held",
		Header: []string{"tracing", "keep", "served", "achieved/s", "ns/op", "overhead", "roots", "kept", "ring spans", "p50", "p99"},
	}

	var base load.Summary
	// The first cell, with no recorder, is the untraced control.
	for i, keep := range append([]float64{0}, keeps...) {
		sc := server.Config{BatchSize: 8, MaxWait: 500 * time.Microsecond, TraceSample: 1}
		var o obs.Observer
		if i > 0 {
			sc.Trace = obs.NewSpanRecorder(obs.NewTraceSource(cfg.Seed), keep)
			c := obs.NewCollector(obs.NewRegistry())
			c.AttachSpans(sc.Trace)
			o = c
		}
		s, _, err := wireCell(cfg, l, sc, o, due)
		if err == nil && s.Shed > 0 {
			err = fmt.Errorf("%d of %d requests shed", s.Shed, requests)
		}
		if err != nil {
			return nil, fmt.Errorf("E22 keep=%g: %w", keep, err)
		}
		row := []any{"off", "-", s.Served, fmt.Sprintf("%.0f", s.Rate), fmt.Sprintf("%.0f", 1e9/s.Rate), "-", "-", "-", "-",
			s.P50.Round(time.Microsecond), s.P99.Round(time.Microsecond)}
		if i == 0 {
			base = s
		} else {
			st := sc.Trace.Stats()
			row[0], row[1], row[5] = "on", fmt.Sprintf("%.2f", keep), fmt.Sprintf("%+.1f%%", 100*(base.Rate/s.Rate-1))
			row[6], row[7], row[8] = st.Roots, st.Kept, st.Spans
		}
		t.Add(row...)
	}
	return []*Table{t}, nil
}
