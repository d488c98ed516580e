package server

// /statusz is the human-facing live-introspection page: one request
// shows the pool's per-engine load and breaker states, the coalescing
// batcher's occupancy, each partly spent tenant bucket, the recent
// sampled slow traces, and the latency exemplars that bridge /metrics
// to /debug/traces. It renders plain text by default ("curl :8080/statusz"
// reads naturally in a terminal) and minimal HTML with ?format=html.

import (
	"bytes"
	"fmt"
	"html"
	"net/http"
	"time"
)

// statusz serves the live status page.
func (s *Server) statusz(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	now := time.Now()
	state := "serving"
	if s.isDraining() {
		state = "draining"
	}
	fmt.Fprintf(&buf, "parlistd statusz — %s — %s\n\n", now.Format(time.RFC3339), state)

	st := s.pool.Stats()
	fmt.Fprintf(&buf, "engine pool\n")
	fmt.Fprintf(&buf, "  engines %d  requests %d  steps %d  batches %d  failures %d\n",
		st.Engines, st.Requests, st.Steps, st.Batches, st.Failures)
	fmt.Fprintf(&buf, "  rejected %d  canceled %d  retries %d  deadline %d\n",
		st.Rejected, st.Canceled, st.Retries, st.DeadlineExceeded)
	fmt.Fprintf(&buf, "  %-6s %8s %8s %10s %6s %9s\n", "engine", "served", "pending", "breaker", "trips", "rebuilds")
	for i, e := range st.PerEngine {
		fmt.Fprintf(&buf, "  %-6d %8d %8d %10s %6d %9d\n",
			i, e.Served, e.Pending, e.Breaker, e.Trips, e.Stats.Rebuilds)
	}

	fmt.Fprintf(&buf, "\nbatcher\n")
	fmt.Fprintf(&buf, "  open groups %d  queued items %d  inflight %d  batch-size %d  max-wait %s\n",
		s.bat.groups.Load(), s.bat.queued.Load(), s.met.inflight.Value(),
		s.cfg.BatchSize, s.cfg.MaxWait)
	fmt.Fprintf(&buf, "  flushes")
	for _, c := range flushCauses {
		fmt.Fprintf(&buf, "  %s %d", c, s.met.flushes[c].Value())
	}
	fmt.Fprintf(&buf, "\n")

	rate, burst, fills := s.lim.snapshot()
	fmt.Fprintf(&buf, "\nrate limiter\n")
	if rate <= 0 {
		fmt.Fprintf(&buf, "  unlimited\n")
	} else {
		fmt.Fprintf(&buf, "  rate %.1f/s  burst %.0f\n", rate, burst)
		// Tenant names are the client's bytes: quoted, a newline in
		// one cannot forge a line of its own.
		for _, f := range fills {
			fmt.Fprintf(&buf, "  %-24q %6.1f / %.0f tokens\n", f.tenant, f.tokens, burst)
		}
	}

	fmt.Fprintf(&buf, "\ntracing\n")
	if s.rec == nil {
		fmt.Fprintf(&buf, "  disabled\n")
	} else {
		ts := s.rec.Stats()
		fmt.Fprintf(&buf, "  roots %d  kept %d  spans %d  pending %d  slow-threshold %s\n",
			ts.Roots, ts.Kept, ts.Spans, ts.Pending, time.Duration(ts.SlowNs))
		slow := s.rec.Slowest(10)
		if len(slow) > 0 {
			fmt.Fprintf(&buf, "  slowest kept traces (see /debug/traces):\n")
			for _, t := range slow {
				status := t.Status
				if status == "" {
					status = "ok"
				}
				fmt.Fprintf(&buf, "    %s  %12s  %3d spans  %s\n", t.TraceID, t.Dur, t.Spans, status)
			}
		}
		if ex := s.met.respondNs.Exemplars(); len(ex) > 0 {
			fmt.Fprintf(&buf, "  latency exemplars (respond ns -> trace):\n")
			for _, e := range ex {
				fmt.Fprintf(&buf, "    %12s  %s\n", time.Duration(e.Value), e.TraceID())
			}
		}
	}

	if r.URL.Query().Get("format") == "html" {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<!doctype html><html><head><title>parlistd statusz</title></head><body><pre>%s</pre></body></html>\n",
			html.EscapeString(buf.String()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
}
