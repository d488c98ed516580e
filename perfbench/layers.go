package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
)

// snapshot is a stack's cumulative counters at one instant, by name.
// Every counter only grows, so the difference of two snapshots of one
// stack is what its layers did in between.
type snapshot map[string]float64

func (s snapshot) minus(a snapshot) snapshot {
	d := snapshot{}
	for k, v := range s {
		d[k] = v - a[k]
	}
	return d
}

func (s snapshot) add(d snapshot) {
	for k, v := range d {
		s[k] += v
	}
}

// mean is the mean of the histogram recorded under key, in ms.
func (s snapshot) mean(key string) float64 {
	if s[key+".n"] == 0 {
		return 0
	}
	return s[key+".sum"] / s[key+".n"] / 1e6
}

// addHist records a nanosecond histogram's count and sum under key.
func (s snapshot) addHist(key string, h *obs.Histogram) {
	var hs obs.HistSnapshot
	h.Snapshot(&hs)
	s[key+".n"], s[key+".sum"] = float64(hs.Count), float64(hs.Sum)
}

// baseSnap reads the counters every stack has: the process, the Go
// runtime, the pool and its engines, and the collector's queue-wait
// histogram.
func baseSnap(p *engine.EnginePool, reg *obs.Registry) snapshot {
	st := p.Stats()
	s := snapshot{
		"cpu_s":           cpuTime().Seconds(),
		"pool.requests":   float64(st.Requests),
		"pool.steps":      float64(st.Steps),
		"pool.batches":    float64(st.Batches),
		"pool.retries":    float64(st.Retries),
		"pool.rejected":   float64(st.Rejected),
		"pool.service_ns": float64(st.Service),
	}
	for i, e := range st.PerEngine {
		s[fmt.Sprintf("engine%d.work", i)] = float64(e.Served + e.Stats.Steps)
		s["ws.gets"] += float64(e.Stats.Arena.Gets)
		s["ws.hits"] += float64(e.Stats.Arena.Hits)
		s["engine.rebuilds"] += float64(e.Stats.Rebuilds)
	}
	alloc, gcs, gcCPU := goRuntime()
	s["go.alloc_bytes"], s["go.gc_cycles"], s["go.gc_cpu_s"] = float64(alloc), float64(gcs), gcCPU
	s.addHist("queue_wait", reg.Histogram("parlist_queue_wait_ns", ""))
	return s
}

// metricSpec names one per-layer metric and its unit.
type metricSpec struct{ name, unit string }

// perLayer is every per-layer metric, in output order. A traced run
// prints all of them; a layer the workload does not reach reads 0.
var perLayer = func() []metricSpec {
	s := []metricSpec{
		{"gen.late_ms.p50", "ms"}, {"gen.late_ms.p99", "ms"},
		{"server.wire_in_ms.mean", "ms"}, {"server.wire_in_ms.p50", "ms"},
		{"server.wire_out_ms.mean", "ms"}, {"server.wire_out_ms.p50", "ms"},
		{"server.shed", "count"},
		{"server.batch_wait_ms.mean", "ms"}, {"server.batch_wait_ms.p50", "ms"},
		{"server.batch_size.mean", "count"}, {"server.timer_flush_frac", "fraction"},
		{"pool.queue_ms.mean", "ms"}, {"pool.queue_ms.p50", "ms"},
		{"pool.batches_per_kreq", "1/kreq"}, {"pool.retries", "count"}, {"pool.rejected", "count"},
		{"pool.engine_share_max", "fraction"},
		{"engine.service_ms.mean", "ms"}, {"engine.service_ms.p50", "ms"},
	}
	for _, e := range probeClasses() {
		s = append(s, metricSpec{"engine.run_us." + e, "us"})
	}
	s = append(s, []metricSpec{
		{"ws.arena_hit_frac", "fraction"}, {"engine.rebuilds", "count"},
		{"list.validate_us.65536", "us"},
		{"kernel.rank_us.65536", "us"}, {"kernel.prefix_us.65536", "us"},
		{"kernel.match4_us.4096", "us"}, {"kernel.partition_us.4096", "us"},
		{"pram.sim_time.threecolor", "steps"}, {"pram.sim_time.mis", "steps"}, {"pram.sim_time.schedule", "steps"},
		{"pram.sim_work.threecolor", "ops"}, {"pram.sim_work.mis", "ops"}, {"pram.sim_work.schedule", "ops"},
		{"shard.k1_ms.p50", "ms"}, {"shard.k2_ms.p50", "ms"},
		{"shard.step_us.contract", "us"}, {"shard.step_us.exchange", "us"},
		{"shard.step_us.solve", "us"}, {"shard.step_us.expand", "us"},
		{"shard.exchange_kb_per_req", "KiB"}, {"shard.segments_per_req", "count"},
		{"shard.steps_per_req", "count"}, {"shard.imbalance.mean", "ratio"},
		{"obs.kept_frac", "fraction"}, {"obs.spans_per_req", "count"},
		{"go.alloc_kb_per_req", "KiB"}, {"go.gc_per_kreq", "1/kreq"}, {"go.gc_cpu_frac", "fraction"},
		{"bench.trace_overhead_pct", "%"}, {"input.repeat_frac", "fraction"},
	}...)
	return s
}()

// layers computes the traced run's per-layer metrics into out, runs the
// probe pass, checks every layer budget, and writes the spans.
func layers(out map[string]metric, w *workload, c *corpus, m *measurement, warm []rec, tr *tracer) error {
	v := map[string]float64{}
	all := slices.Concat(m.phase(0), m.phase(1))

	// Distributions of every budget part over the served requests.
	dist := map[string][]time.Duration{}
	var k1, k2 []time.Duration
	var exch, segs int64
	var imb float64
	for i := range all {
		r := &all[i]
		if !r.ok() {
			continue
		}
		for j, name := range budgets[r.class].parts {
			dist[name] = append(dist[name], r.parts[j])
		}
		switch r.k {
		case 1:
			k1 = append(k1, r.lat)
		case 2:
			k2 = append(k2, r.lat)
			exch += r.shard.ExchangeBytes
			segs += int64(r.shard.Segments)
			imb += r.shard.Imbalance
		}
	}
	for name, d := range dist {
		slices.Sort(d)
		var sum time.Duration
		for _, x := range d {
			sum += x
		}
		v[name+".mean"] = ms(sum) / float64(len(d))
		v[name+".p50"] = ms(pct(d, 0.5))
		v[name+".p99"] = ms(pct(d, 0.99))
	}
	slices.Sort(k1)
	slices.Sort(k2)
	v["shard.k1_ms.p50"] = ms(pct(k1, 0.5))
	v["shard.k2_ms.p50"] = ms(pct(k2, 0.5))
	d := m.delta(-1)
	if n := float64(len(k2)); n > 0 {
		v["shard.exchange_kb_per_req"] = float64(exch) / 1024 / n
		v["shard.segments_per_req"] = float64(segs) / n
		v["shard.imbalance.mean"] = imb / n
		v["shard.steps_per_req"] = d["pool.steps"] / n
	}

	v["server.shed"] = float64(tallyOf(all).shed)
	if n := d["batch_size.n"]; n > 0 {
		v["server.batch_size.mean"] = d["batch_size.sum"] / n
	}
	if n := d["flushes"]; n > 0 {
		v["server.timer_flush_frac"] = d["flushes.timer"] / n
	}
	if n := d["pool.requests"]; n > 0 {
		v["pool.batches_per_kreq"] = d["pool.batches"] * 1000 / n
	}
	v["pool.retries"] = d["pool.retries"]
	v["pool.rejected"] = d["pool.rejected"]
	var work, most float64
	for i := 0; ; i++ {
		e, ok := d[fmt.Sprintf("engine%d.work", i)]
		if !ok {
			break
		}
		work += e
		most = math.Max(most, e)
	}
	if work > 0 {
		v["pool.engine_share_max"] = most / work
	}
	if d["ws.gets"] > 0 {
		v["ws.arena_hit_frac"] = d["ws.hits"] / d["ws.gets"]
	}
	v["engine.rebuilds"] = d["engine.rebuilds"]
	if n := d["spans.roots"]; n > 0 {
		v["obs.kept_frac"] = d["spans.kept"] / n
	}
	if m.rec != nil {
		spans := m.rec.Spans()
		traces := map[[2]uint64]bool{}
		for _, s := range spans {
			traces[[2]uint64{s.TraceHi, s.TraceLo}] = true
		}
		if len(traces) > 0 {
			v["obs.spans_per_req"] = float64(len(spans)) / float64(len(traces))
		}
	}
	n := float64(len(all))
	v["go.alloc_kb_per_req"] = d["go.alloc_bytes"] / 1024 / n
	v["go.gc_per_kreq"] = d["go.gc_cycles"] * 1000 / n
	v["go.gc_cpu_frac"] = d["go.gc_cpu_s"] / d["cpu_s"]
	v["bench.trace_overhead_pct"] = tr.overheadPct()
	v["input.repeat_frac"] = repeatFrac(c, warm, all)

	if err := probe(v, tr); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	printPhases(w, m)
	if err := budgetCheck(w.name, all); err != nil {
		return err
	}
	if err := crossCheck(w.name, m); err != nil {
		return err
	}

	fmt.Printf("per-layer metrics (%s):\n", w.name)
	for _, s := range perLayer {
		out[s.name] = metric{v[s.name], s.unit}
		fmt.Printf("  %-32s %14.4f %s\n", s.name, v[s.name], s.unit)
	}
	return writeTrace(w.name, tr)
}

// printPhases prints, phase by phase, the load generator's lateness and
// the batcher's fusion, so a starved generator or a phase that never
// fuses shows.
func printPhases(w *workload, m *measurement) {
	if !w.wire {
		return
	}
	for p := range phaseName {
		var late []time.Duration
		for _, r := range m.phase(p) {
			if r.ok() {
				late = append(late, r.parts[0])
			}
		}
		slices.Sort(late)
		d := m.delta(p)
		fmt.Printf("phase %s: gen.late p50 %.4f ms  p99 %.4f ms  max %.4f ms; batch size mean %.4f; timer flushes %.4f\n",
			phaseName[p], ms(pct(late, 0.5)), ms(pct(late, 0.99)), ms(pct(late, 1)),
			d["batch_size.sum"]/d["batch_size.n"], d["flushes.timer"]/d["flushes"])
	}
}

// repeatFrac is the share of measured requests whose exact input had
// already been sent earlier in the run (set-up and warm-up included).
func repeatFrac(c *corpus, warm, all []rec) float64 {
	seen := map[int]bool{}
	for _, e := range c.classes {
		seen[e.id] = true
	}
	for _, r := range warm {
		seen[r.e.id] = true
	}
	reps := 0
	sorted := slices.Clone(all)
	slices.SortStableFunc(sorted, func(a, b rec) int { return a.due.Compare(b.due) })
	for _, r := range sorted {
		if seen[r.e.id] {
			reps++
		}
		seen[r.e.id] = true
	}
	return float64(reps) / float64(len(all))
}

// budgetCheck prints each request class's layer budget and fails unless
// the layer means sum to the end-to-end mean within rounding and no
// layer ever took negative time. The parts tile each request by
// construction, so this guards the bookkeeping; crossCheck is what ties
// the parts to the system's own measurements.
func budgetCheck(name string, all []rec) error {
	type acc struct {
		n     int
		root  float64
		parts [maxParts]float64
		neg   int
	}
	var accs [len(budgets)]acc
	for i := range all {
		r := &all[i]
		if !r.ok() {
			continue
		}
		a := &accs[r.class]
		a.n++
		a.root += ms(r.root)
		for j := range budgets[r.class].parts {
			a.parts[j] += ms(r.parts[j])
			if r.parts[j] < 0 {
				a.neg++
			}
		}
	}
	for cl, a := range accs {
		if a.n == 0 {
			continue
		}
		b := budgets[cl]
		root := a.root / float64(a.n)
		fmt.Printf("layer budget (%s, %s, %d requests): end-to-end mean %.4f ms\n", name, b.name, a.n, root)
		sum := 0.0
		for j, part := range b.parts {
			mean := a.parts[j] / float64(a.n)
			sum += mean
			fmt.Printf("  %-24s %10.4f ms  %5.1f%%\n", part, mean, 100*mean/root)
		}
		fmt.Printf("  %-24s %10.4f ms\n", "sum", sum)
		if math.Abs(sum-root) > 1e-6*math.Max(1, root) {
			return fmt.Errorf("layer budget %s: parts sum to %.6f ms, end-to-end mean %.6f ms", b.name, sum, root)
		}
		if a.neg > 0 {
			return fmt.Errorf("layer budget %s: %d negative layer times", b.name, a.neg)
		}
	}
	return nil
}

// check is one comparison of a layer mean from the requests' records
// (got) with the figure the system's instrumentation recorded over the
// same blocks (ref). got must lie in [lo, hi]; all values are in ms.
type check struct {
	what        string
	got, ref    float64
	lo, hi      float64
	nRec, nInst float64 // sample counts behind got and ref
}

// agreeTol is how far a record-derived mean may stray from the
// instrumentation's mean of the same quantity: 2 µs plus 1%. Both sides
// read the same clock at the same instants, one through the response's
// wire stamps or the future's metrics, the other through the server's
// and collector's histograms and the pool's counters.
func agreeTol(ref float64) float64 { return 0.002 + 0.01*ref }

// Remainder caps: the share of a request's mean latency the parts the
// records cannot attribute to a measured layer may take. The K=1 hop is
// the future's hand-off around queue and service (about 1% in
// practice); the K=2 rest is everything after the slower contract step
// — exchange, solve, expand, their queueing, and the list validation
// and shard state before (about three quarters in practice).
const (
	hopShareMax  = 0.10
	restShareMax = 0.90
)

// stampSlack is how much longer than the instrumentation's mean a
// record's span may run, in ms, beyond 5% of the mean, where its stamps
// bracket a little more work than the histogram times: the response
// frame's encoding after parlistd_respond_ns observes, and a batch's
// submission and set-up around the pool's queue wait.
const stampSlack = 0.05

// crossCheck compares the layer means derived from each request's
// record with what the system's own instrumentation recorded over the
// same blocks, and caps the remainder parts. A stamp the codec garbled,
// a part charged to the wrong layer, or a remainder that swallowed a
// layer fails the run.
func crossCheck(name string, m *measurement) error {
	var cs []check
	near := func(what string, got, ref, nRec, nInst float64) {
		cs = append(cs, check{what, got, ref, ref - agreeTol(ref), ref + agreeTol(ref), nRec, nInst})
	}
	atLeast := func(what string, got, ref, nRec, nInst float64) {
		cs = append(cs, check{what, got, ref, ref - agreeTol(ref), math.Inf(1), nRec, nInst})
	}
	capShare := func(what string, got, root, share, n float64) {
		cs = append(cs, check{what, got, root, 0, share * root, n, n})
	}

	// Wire requests, over every block: parts 2-4 are enqueue → flush →
	// service → respond.
	var wn, wWait, wQueue, wService float64
	// firstQueue is each fused batch's queue wait: the flush → service
	// gap of its first-served item. Items of one batch share their op,
	// size and flush stamp; due plus the first three parts is the flush
	// stamp, exactly.
	type batchKey struct {
		flush int64
		key   string
	}
	firstQueue := map[batchKey]time.Duration{}
	// Pool calls: K=1 in the lo blocks, K=2 in the hi blocks.
	var pn, pRoot, pQueue, pService, pHop float64
	var sn, sRoot, sRest, sContract, sSteps float64
	for _, b := range m.blocks {
		for i := range b.recs {
			r := &b.recs[i]
			if !r.ok() {
				continue
			}
			switch r.class {
			case classWire:
				wn++
				wWait += ms(r.parts[2])
				wQueue += ms(r.parts[3])
				wService += ms(r.parts[4])
				k := batchKey{r.due.Round(0).Add(r.parts[0] + r.parts[1] + r.parts[2]).UnixNano(), r.e.key}
				if q, ok := firstQueue[k]; !ok || r.parts[3] < q {
					firstQueue[k] = r.parts[3]
				}
			case classPool:
				pn++
				pRoot += ms(r.root)
				pQueue += ms(r.parts[0])
				pService += ms(r.parts[1])
				pHop += ms(r.parts[2])
			case classSharded:
				sn++
				sRoot += ms(r.root)
				sRest += ms(r.parts[1])
				for _, c := range r.shard.ContractWall {
					sContract += ms(c)
					sSteps++
				}
			}
		}
	}
	if wn > 0 {
		d := m.delta(-1)
		near("server.batch_wait_ms vs parlistd_batch_wait_ns", wWait/wn, d.mean("batch_wait"), wn, d["batch_wait.n"])
		// The respond stamp is taken as the frame is encoded, just after
		// the histogram observes, so the stamps may only run long.
		got, ref := (wWait+wQueue+wService)/wn, d.mean("respond")
		cs = append(cs, check{"enqueue->respond vs parlistd_respond_ns", got, ref,
			ref - agreeTol(ref), ref + stampSlack + 0.05*ref, wn, d["respond.n"]})
		// The service part runs to the response, so it holds the item's
		// machine time and the rest of its fused batch.
		atLeast("engine.service_ms vs parlistd_service_ns", wService/wn, d.mean("service"), wn, d["service.n"])
		var q float64
		for _, x := range firstQueue {
			q += ms(x)
		}
		nb := float64(len(firstQueue))
		ref = d.mean("queue_wait")
		cs = append(cs, check{"batch first pool.queue_ms vs parlist_queue_wait_ns", q / nb, ref,
			ref - agreeTol(ref), ref + stampSlack + 0.05*ref, nb, d["queue_wait.n"]})
	}
	if pn > 0 {
		d := m.delta(0)
		near("pool.queue_ms vs parlist_queue_wait_ns", pQueue/pn, d.mean("queue_wait"), pn, d["queue_wait.n"])
		near("engine.service_ms vs pool service counter", pService/pn, d["pool.service_ns"]/d["pool.requests"]/1e6, pn, d["pool.requests"])
		capShare(fmt.Sprintf("pool.hop_ms <= %.0f%% of latency", 100*hopShareMax), pHop/pn, pRoot/pn, hopShareMax, pn)
	}
	if sn > 0 {
		d := m.delta(1)
		near("contract step walls vs parlist_shard_step_wall_ns", sContract/sSteps, d.mean("step.contract"), sSteps, d["step.contract.n"])
		// The rest holds the solve step and the slower expand step.
		atLeast("shard.rest_ms vs solve + expand step walls", sRest/sn, d.mean("step.solve")+d.mean("step.expand"), sn, d["step.solve.n"])
		capShare(fmt.Sprintf("shard.rest_ms <= %.0f%% of latency", 100*restShareMax), sRest/sn, sRoot/sn, restShareMax, sn)
	}

	fmt.Printf("layer cross-check (%s): record means against the system's instrumentation, ms\n", name)
	var bad []string
	for _, c := range cs {
		verdict := "ok"
		if !(c.got >= c.lo && c.got <= c.hi) {
			verdict = "FAIL"
			bad = append(bad, c.what)
		}
		fmt.Printf("  %-52s records %9.4f (n=%.0f)  instrumentation %9.4f (n=%.0f)  allowed [%.4f, %.4f]  %s\n",
			c.what, c.got, c.nRec, c.ref, c.nInst, c.lo, c.hi, verdict)
	}
	if len(bad) > 0 {
		return fmt.Errorf("layer cross-check failed: %s", strings.Join(bad, "; "))
	}
	return nil
}

// writeTrace writes the run's spans as Chrome trace JSON.
func writeTrace(name string, tr *tracer) error {
	path := filepath.Join(".bench_build", "perfbench", "trace-"+name+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.t.WriteJSON(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", tr.t.Len(), path)
	return nil
}
