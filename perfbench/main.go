// Command perfbench is parlist's end-to-end benchmark. One run drives
// one workload against the serving stack the way its users do, checks
// every result against a certified reference, and prints its metrics:
//
//	bash perfbench/run.sh --workload wire-mixed --seed 1 --seconds 50 --trace 0
//
// Workloads:
//
//   - wire-mixed: internal/server hosted in this process exactly as
//     cmd/parlistd wires it (-exec native, all other flags at their
//     defaults), driven over the binary framing by two pipelined
//     server.Client connections with seeded Poisson arrivals at a lo and
//     a hi rate. Half the requests are rank on n=1024 (one hot coalescing
//     group); the other half are uniform over all seven ops at n=256,
//     1024 and 4096.
//   - inproc-rank: a closed loop of two callers on engine.EnginePool
//     without the wire, on rank and prefix at n=65536: whole calls
//     through Submit/Wait (K=1) in its lo phase, ShardedDo with K=2 in
//     its hi phase.
//
// A run measures a lo and a hi phase of --seconds/2 each, in
// alternating blocks of 2.5 s. A phase reports the median over its
// blocks; the unsuffixed metrics are the geometric means of the lo and
// hi values. The system is brought up from nothing several times, in
// groups spread evenly over the blocks: the last bring-up of a group
// serves the blocks up to the next group, after a second of untimed
// warm traffic. setup_s is the median over all bring-ups.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same
// phases, derives each request's layer budget from the server-stamped
// life cycle in its response (or the pool future's metrics), times
// direct calls into each layer's public functions in a probe pass after
// the phases, writes the spans once at exit as Chrome trace JSON
// (.bench_build/perfbench/trace-<workload>.json), and prints the
// per-layer metrics. It fails unless every layer budget sums to its
// end-to-end mean and each layer's mean agrees with what the system's
// own instrumentation recorded over the same blocks.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The run exits 1 without that line when the system cannot be brought
// up, leaks a goroutine, fails its budget check, or is still running
// after twice --seconds plus a minute.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
)

// workload is one traffic mix and the load levels it is measured at.
type workload struct {
	name string
	// wire selects the daemon stack; otherwise the pool is driven
	// in-process.
	wire bool
	// lo and hi are the phases' levels: Poisson arrival rates in
	// requests per second on the wire, the shard fan-out K in process.
	lo, hi float64
	// limit is the latency a hi-phase request must meet to count
	// towards slo_attain.hi.
	limit time.Duration
	ops   []engine.Op
	sizes []int
	// hotOp/hotN, when set, name the class that receives half of all
	// arrivals.
	hotOp engine.Op
	hotN  int
}

var allOps = []engine.Op{engine.OpMatching, engine.OpPartition, engine.OpThreeColor,
	engine.OpMIS, engine.OpRank, engine.OpPrefix, engine.OpSchedule}

// workloads are the traffic mixes BENCHMARK.json names.
var workloads = []*workload{
	{name: "wire-mixed", wire: true, lo: 400, hi: 1600, limit: 20 * time.Millisecond,
		ops: allOps, sizes: []int{256, 1024, 4096}, hotOp: engine.OpRank, hotN: 1024},
	{name: "inproc-rank", lo: 1, hi: 2, limit: 50 * time.Millisecond,
		ops: []engine.Op{engine.OpRank, engine.OpPrefix}, sizes: []int{65536}},
}

// Run shape: how many fresh bring-ups a run makes, in how many groups
// at most, and the untimed warm traffic after each group.
const (
	setups      = 15
	setupGroups = 5
	warmTime    = time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: wire-mixed | inproc-rank")
	seed := flag.Int64("seed", 1, "seed for inputs and arrival schedules")
	seconds := flag.Int("seconds", 50, "measured seconds (split evenly between the lo and hi phases)")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload wire-mixed|inproc-rank, --seconds >= 2, --trace 0|1")
		os.Exit(2)
	}
	// A run far past its budget has hung in the system under test: fail
	// it with every goroutine's stack rather than wait forever.
	limit := 2*time.Duration(*seconds)*time.Second + time.Minute
	time.AfterFunc(limit, func() {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result after %v; goroutines:\n%s", w.name, limit, buf)
		os.Exit(1)
	})
	rep, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// stack is a system under test brought up from nothing.
type stack interface {
	// drive runs one block at load level for d and returns every
	// request's record. tr is nil outside traced runs.
	drive(c *corpus, level float64, d time.Duration, seed int64, tr *tracer) []rec
	// snap reads the layers' cumulative counters.
	snap() snapshot
	close() error
}

// newCollector returns the pool observer both stacks attach, with its
// per-participant barrier counters already created. obs.Collector makes
// each participant's counter pair on first use and publishes the wait
// total before the wait count, so when two engines' machines reach
// their first barrier together one can read the count while it is still
// nil and crash the process (Collector.worker in internal/obs). Touching
// every participant once, before any engine runs, creates both up
// front. A machine's participants are its coordinator (0) and one per
// background worker (1 to GOMAXPROCS-1, pram's default worker count).
func newCollector(reg *obs.Registry) *obs.Collector {
	col := obs.NewCollector(reg)
	for q := 0; q < runtime.GOMAXPROCS(0); q++ {
		col.BarrierWaitObserved(q, 0)
	}
	return col
}

// warmItem is one set-up warm-up call: a class's entry, sent whole or
// (in process) with shard fan-out k.
type warmItem struct {
	e *entry
	k int
}

// warmUp sends every item at once and resends the failed ones, up to
// three rounds. It returns how many calls it made and each failure; err
// is set when an item never succeeded.
func warmUp(items []warmItem, round func([]warmItem) []error) (sent int, fails []error, err error) {
	for try := 0; len(items) > 0; try++ {
		if try == 3 {
			return sent, fails, fmt.Errorf("warm-up: %d calls failed 3 times", len(items))
		}
		errs := round(items)
		sent += len(items)
		var again []warmItem
		for i, err := range errs {
			if err != nil {
				fails = append(fails, fmt.Errorf("warm-up %s: %w", items[i].e.key, err))
				again = append(again, items[i])
			}
		}
		items = again
	}
	return sent, fails, nil
}

// measurement is a run's timed part: its blocks, alternating lo and
// hi.
type measurement struct {
	blocks []block
	// rec is the last wire stack's span recorder.
	rec *obs.SpanRecorder
}

// block is one measured block of one phase.
type block struct {
	phase int
	recs  []rec
	cpu   time.Duration // process CPU
	secs  float64       // wall time
	// d is what the layers did during the block.
	d snapshot
}

// phase returns every record of phase p.
func (m *measurement) phase(p int) []rec {
	var out []rec
	for _, b := range m.blocks {
		if b.phase == p {
			out = append(out, b.recs...)
		}
	}
	return out
}

// delta sums the layers' counters over the blocks of phase p, or over
// every block when p is negative. The blocks may have run on different
// stacks; each block's share is a difference within one stack.
func (m *measurement) delta(p int) snapshot {
	sum := snapshot{}
	for _, b := range m.blocks {
		if p < 0 || b.phase == p {
			sum.add(b.d)
		}
	}
	return sum
}

// blockTime is the length of one measured block. The lo and hi phases
// alternate block by block, and each phase reports the median over its
// blocks, so a slow spell of the shared host that covers a minority of
// blocks does not move the result.
const blockTime = 2500 * time.Millisecond

// bench runs one workload end to end.
func bench(w *workload, seed int64, measure time.Duration, traced bool) (*report, error) {
	c, err := buildCorpus(w, seed, listsPerSize)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	baseline := runtime.NumGoroutine()
	up := upInproc
	if w.wire {
		up = upWire
	}
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	fail := func(what string, err error) {
		rep.Failed++
		rep.Correct = false
		if rep.Failed <= 10 {
			fmt.Printf("%s failure: %v\n", what, err)
		}
	}
	var (
		s     stack
		times []float64
		warm  []rec
	)
	// tearDown closes the serving stack and waits until every goroutine
	// it started has ended.
	tearDown := func() error {
		if err := s.close(); err != nil {
			return fmt.Errorf("tear-down: %w", err)
		}
		return settle(baseline)
	}
	// bringUp replaces the serving stack with the last of per fresh
	// bring-ups, each timed until the first verified response for every
	// class, and warms it. A slow spell of the shared host then touches
	// one group of bring-ups, not the median over all of them.
	bringUp := func(per int) error {
		for j := 0; j < per; j++ {
			if s != nil {
				if err := tearDown(); err != nil {
					return err
				}
			}
			runtime.GC()
			t0 := time.Now()
			var sent int
			var fails []error
			s, sent, fails, err = up(c, seed+int64(len(times)))
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			times = append(times, time.Since(t0).Seconds())
			rep.Attempted += sent
			for _, err := range fails {
				fail("set-up", err)
			}
		}
		warm = append(warm, s.drive(c, w.lo, warmTime, seed^0x5a5a+int64(len(times)), nil)...)
		return nil
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	pairs := max(1, int(measure/2/blockTime))
	d := measure / 2 / time.Duration(pairs)
	groups := min(setupGroups, pairs)
	per, every := (setups+groups-1)/groups, pairs/groups
	var m measurement
	for i := 0; i < 2*pairs; i++ {
		if pair := i / 2; i%2 == 0 && pair%every == 0 && pair/every < groups {
			if err := bringUp(per); err != nil {
				return nil, err
			}
		}
		b := block{phase: i % 2}
		before := s.snap()
		t0, cpu0 := time.Now(), cpuTime()
		tr.startBlock()
		b.recs = s.drive(c, []float64{w.lo, w.hi}[b.phase], d, seed+int64(i)*7919, tr)
		tr.endBlock(b.recs)
		b.cpu, b.secs = cpuTime()-cpu0, time.Since(t0).Seconds()
		b.d = s.snap().minus(before)
		m.blocks = append(m.blocks, b)
	}
	fmt.Printf("%s seed=%d set-up s: %s\n", w.name, seed, fmtFloats(times))
	// Peak RSS is read before the records are analysed, so it covers the
	// system under test and the load generator, not the report.
	rss := peakRSSMB()
	if ws, ok := s.(*wireStack); ok {
		m.rec = ws.rec
	}
	if err := tearDown(); err != nil {
		return nil, err
	}

	all := slices.Concat(warm, m.phase(0), m.phase(1))
	for i := range all {
		rep.Attempted++
		if r := &all[i]; !r.ok() {
			fail(r.e.key, r.err)
		}
	}
	for p := range phaseName {
		fmt.Printf("phase %s level=%g: %s\n", phaseName[p], []float64{w.lo, w.hi}[p], tallyOf(m.phase(p)))
	}

	if !traced {
		endToEnd(rep.Metrics, w, &m, times, rss)
		return rep, nil
	}
	if err := layers(rep.Metrics, w, c, &m, warm, tr); err != nil {
		return nil, err
	}
	if err := settle(baseline); err != nil {
		return nil, err
	}
	return rep, nil
}

var phaseName = [2]string{"lo", "hi"}

// endToEnd fills the metrics a user of the system sees. Each phase's
// latency, CPU and throughput are the medians over its blocks; the
// unsuffixed metrics are the geometric means of the two phases' values.
func endToEnd(out map[string]metric, w *workload, m *measurement, setup []float64, rss float64) {
	out["setup_s"] = metric{median(setup), "s"}
	out["rss_mb"] = metric{rss, "MB"}
	var lat, cpu, rate [2]float64
	for p := range phaseName {
		var lats, cpus, rates []float64
		for _, b := range m.blocks {
			if b.phase != p || len(b.recs) == 0 {
				continue
			}
			nodes := 0
			for _, r := range b.recs {
				if r.ok() {
					nodes += r.e.nodes
				}
			}
			lats = append(lats, ms(pct(latencies(b.recs), 0.5)))
			cpus = append(cpus, ms(b.cpu)*1000/float64(len(b.recs)))
			rates = append(rates, float64(nodes)/b.secs/1e6)
		}
		lat[p], cpu[p], rate[p] = median(lats), median(cpus), median(rates)
		out["lat_p50_ms."+phaseName[p]] = metric{lat[p], "ms"}
		out["cpu_ms_per_kreq."+phaseName[p]] = metric{cpu[p], "ms/kreq"}
		all := latencies(m.phase(p))
		fmt.Printf("  %s: block p50s ms %s\n", phaseName[p], fmtFloats(lats))
		fmt.Printf("  %s: p50 %.4f ms  p90 %.4f ms  p99 %.4f ms  (n=%d, %d beyond p99)\n", phaseName[p],
			ms(pct(all, 0.5)), ms(pct(all, 0.9)), ms(pct(all, 0.99)), len(all), len(all)/100)
	}
	hi := m.phase(1)
	met := 0
	for _, r := range hi {
		if r.ok() && r.lat <= w.limit {
			met++
		}
	}
	out["slo_attain.hi"] = metric{float64(met) / float64(len(hi)), "fraction"}
	out["lat_p50_ms"] = metric{math.Sqrt(lat[0] * lat[1]), "ms"}
	out["cpu_ms_per_kreq"] = metric{math.Sqrt(cpu[0] * cpu[1]), "ms/kreq"}
	out["mnodes_per_s"] = metric{math.Sqrt(rate[0] * rate[1]), "Mnodes/s"}
}

// settle waits for the goroutine count to return to baseline and fails
// the run if it does not: every client, listener, server goroutine and
// engine worker must be gone.
func settle(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines outlived tear-down (baseline %d):\n%s", n-baseline, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// goRuntime reads the Go runtime counters the per-layer metrics use.
func goRuntime() (allocBytes, gcCycles uint64, gcCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct is the q-quantile of sorted durations (nearest rank).
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
