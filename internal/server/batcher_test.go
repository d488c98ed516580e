package server

// Tests for the batcher's flush policy: a group is held only while
// every engine is busy. An idle pool flushes at once (cause "idle"), a
// completion wake-up flushes a held group the moment an engine frees,
// MaxWait caps the hold when engines stay busy (cause "timer"), a
// closed loop over mixed classes never strands a request, and all of
// it holds up with every trigger racing a drain.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/obs"
)

// flushCounts reads the flush counters by cause.
func flushCounts(s *Server) map[string]int64 {
	m := make(map[string]int64, len(flushCauses))
	for _, c := range flushCauses {
		m[c] = s.met.flushes[c].Value()
	}
	return m
}

// TestIdleFlush sends one request to an idle pool with an hour-long
// MaxWait: it must flush at once, alone, with cause "idle".
func TestIdleFlush(t *testing.T) {
	s, addr := newTestServer(t, Config{BatchSize: 16, MaxWait: time.Hour})
	c, err := Dial(addr, "idle")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c.Do(ctx, engine.Request{Op: engine.OpRank, List: list.RandomList(300, 5)})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Batched != 1 {
		t.Errorf("batched = %d, want 1", resp.Batched)
	}
	want := map[string]int64{"idle": 1, "size": 0, "timer": 0, "drain": 0}
	if got := flushCounts(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("flushes = %v, want %v", got, want)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	r, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatalf("/statusz: %v", err)
	}
	page, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if line := "flushes  idle 1  size 0  timer 0  drain 0"; !strings.Contains(string(page), line) {
		t.Errorf("/statusz lacks %q:\n%s", line, page)
	}
}

// TestCompletionWakeFlushesHeld holds a request behind two parked
// engines with an hour-long MaxWait and releases one engine: the freed
// engine's completion wake-up must flush the held group at once. No
// arrival follows and the timer is an hour away, so without the wake-up
// the request would wait out the test.
func TestCompletionWakeFlushesHeld(t *testing.T) {
	pool, park := newParkedPool(2)
	s, addr := newTestServer(t, Config{Pool: pool, BatchSize: 16, MaxWait: time.Hour})
	parkers := parkEngines(t, s, park)
	c, err := Dial(addr, "wake")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: list.RandomList(300, 6)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "the request to be held", func() bool { return s.bat.queued.Load() == 1 })
	park.unpark(1)
	select {
	case r, ok := <-ch:
		if !ok || r.Status != StatusOK {
			t.Fatalf("held request failed: %+v", r)
		}
		if r.Batched != 1 {
			t.Errorf("batched = %d, want 1", r.Batched)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held request not flushed after an engine freed")
	}
	park.unpark(1)
	awaitParkers(t, parkers, 2)
	want := map[string]int64{"idle": 3, "size": 0, "timer": 0, "drain": 0}
	if got := flushCounts(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("flushes = %v, want %v", got, want)
	}
}

// TestTimerCapsHeldGroup keeps both engines parked past a short
// MaxWait: the held group must flush on the timer, queue behind the
// parked work, and be served once the engines free.
func TestTimerCapsHeldGroup(t *testing.T) {
	pool, park := newParkedPool(2)
	s, addr := newTestServer(t, Config{Pool: pool, BatchSize: 16, MaxWait: 5 * time.Millisecond})
	parkers := parkEngines(t, s, park)
	c, err := Dial(addr, "timer")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: list.RandomList(300, 7)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "the timer flush", func() bool { return s.met.flushes["timer"].Value() == 1 })
	select {
	case r := <-ch:
		t.Fatalf("request answered while every engine was parked: %+v", r)
	default:
	}
	park.unpark(2)
	select {
	case r, ok := <-ch:
		if !ok || r.Status != StatusOK {
			t.Fatalf("timer-flushed request failed: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer-flushed request not served")
	}
	awaitParkers(t, parkers, 2)
	want := map[string]int64{"idle": 2, "size": 0, "timer": 1, "drain": 0}
	if got := flushCounts(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("flushes = %v, want %v", got, want)
	}
}

// TestClosedLoopMixedClasses runs many closed-loop callers over a mix
// of ops and size classes with an hour-long MaxWait, so every request
// depends on an idle or size flush: all must complete, bit-identical to
// per-request Do, with no timer flush.
func TestClosedLoopMixedClasses(t *testing.T) {
	const callers, rounds = 12, 25
	var reqs []engine.Request
	for _, n := range []int{40, 300, 1500} {
		l := list.RandomList(n, int64(n))
		reqs = append(reqs,
			engine.Request{Op: engine.OpRank, List: l},
			engine.Request{Op: engine.OpMatching, List: l, Seed: 3},
			engine.Request{Op: engine.OpMIS, List: l})
	}
	control := engine.NewPool(engine.PoolConfig{
		Engines: 2, QueueDepth: 64, Engine: engine.Config{Processors: 8}})
	defer control.Close()
	wants := make([]*engine.Result, len(reqs))
	for i, req := range reqs {
		w, err := control.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("control %d: %v", i, err)
		}
		wants[i] = w
	}

	s, addr := newTestServer(t, Config{BatchSize: 4, MaxWait: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr, fmt.Sprintf("caller-%d", g))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(reqs)
				resp, err := c.Do(ctx, reqs[i])
				if err != nil {
					errs <- fmt.Errorf("caller %d round %d: %w", g, r, err)
					return
				}
				assertSameResult(t, i, &resp.Result, wants[i])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	got := flushCounts(s)
	if got["timer"] != 0 {
		t.Errorf("timer flushes = %d with an hour-long MaxWait", got["timer"])
	}
	if st := s.pool.Stats(); st.Requests != callers*rounds {
		t.Errorf("pool served %d requests, want %d", st.Requests, callers*rounds)
	}
}

// gateObserver holds every dequeue while its gate is shut, parking the
// engines of its pool for as long as the gate stays shut.
type gateObserver struct {
	mu   sync.Mutex
	gate chan struct{} // closed while open
}

func newGateObserver() *gateObserver {
	o := &gateObserver{gate: make(chan struct{})}
	close(o.gate)
	return o
}

func (o *gateObserver) Observe(e obs.Event) {
	if e.Kind != obs.KindDequeue {
		return
	}
	o.mu.Lock()
	g := o.gate
	o.mu.Unlock()
	<-g
}

func (o *gateObserver) shut() {
	o.mu.Lock()
	o.gate = make(chan struct{})
	o.mu.Unlock()
}

func (o *gateObserver) open() {
	o.mu.Lock()
	close(o.gate)
	o.mu.Unlock()
}

// TestBatcherStress drives every flush trigger at once. Four
// connections pipeline mixed ops and sizes against two engines that a
// gate parks and releases every few milliseconds, with BatchSize 4 and
// a 300-µs MaxWait, so idle, size and timer flushes all occur. Then,
// with the engines parked on the last requests, Shutdown runs. Every
// request must be answered exactly once, every OK result must equal
// Do's, the flush counters must account for every batch the pool
// served or shed, and no goroutine may outlive the server.
func TestBatcherStress(t *testing.T) {
	const conns, frames, tail = 4, 120, 8
	base := runtime.NumGoroutine()
	var reqs []engine.Request
	for _, n := range []int{40, 300, 1200} {
		reqs = append(reqs, serverTestRequests(t, list.RandomList(n, int64(n)))...)
	}
	control := engine.NewPool(engine.PoolConfig{
		Engines: 2, QueueDepth: 64, Engine: engine.Config{Processors: 8}})
	wants := make([]*engine.Result, len(reqs))
	for i, req := range reqs {
		var err error
		if wants[i], err = control.Do(context.Background(), req); err != nil {
			t.Fatalf("control %d: %v", i, err)
		}
	}
	control.Close()

	gate := newGateObserver()
	pool := engine.NewPool(engine.PoolConfig{
		Engines: 2, QueueDepth: 64, Engine: engine.Config{Processors: 8}, Observer: gate})
	s, err := New(Config{Pool: pool, BatchSize: 4, MaxWait: 300 * time.Microsecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.ServeBinary(ln)
	read := func() int64 {
		var n int64
		for _, op := range opsByName {
			n += s.met.requests("binary", op).Value()
		}
		return n
	}

	// Each connection's frame i carries id i and request i mod len(reqs).
	encode := func(from, to int) []byte {
		var stream []byte
		for i := from; i < to; i++ {
			var err error
			if stream, err = appendRequestFrame(stream, uint64(i), "", &reqs[i%len(reqs)]); err != nil {
				t.Fatalf("encode %d: %v", i, err)
			}
		}
		return stream
	}
	type answer struct {
		conn int
		r    *Response
	}
	answers := make(chan answer, conns*(frames+tail)+conns)
	var answered atomic.Int64
	readErrs := make(chan error, conns)
	cs := make([]net.Conn, conns)
	var readers sync.WaitGroup
	for k := range cs {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		cs[k] = c
		readers.Add(1)
		go func(k int) { // reads responses until the server closes c
			defer readers.Done()
			br := bufio.NewReader(c)
			var lenBuf [4]byte
			for {
				if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
					readErrs <- nil
					return
				}
				buf := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
				if _, err := io.ReadFull(br, buf); err != nil {
					readErrs <- fmt.Errorf("conn %d: %w", k, err)
					return
				}
				r, err := decodeResponseFrame(buf)
				if err != nil {
					readErrs <- fmt.Errorf("conn %d: decode response: %w", k, err)
					return
				}
				answers <- answer{k, r}
				answered.Add(1)
			}
		}(k)
	}

	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() { // parks and releases the engines until stopped, shut
		defer close(toggled)
		for {
			gate.shut()
			time.Sleep(2 * time.Millisecond)
			select {
			case <-stop:
				return
			default:
			}
			gate.open()
			time.Sleep(time.Millisecond)
		}
	}()
	var writers sync.WaitGroup
	writeErrs := make(chan error, conns)
	for k, c := range cs {
		writers.Add(1)
		go func(k int, c net.Conn) {
			defer writers.Done()
			if _, err := c.Write(encode(0, frames)); err != nil {
				writeErrs <- fmt.Errorf("conn %d: %w", k, err)
			}
		}(k, c)
	}
	writers.Wait()
	close(writeErrs)
	for err := range writeErrs {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); answered.Load() < conns*frames; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d first-phase requests answered", answered.Load(), conns*frames)
		}
	}
	close(stop)
	<-toggled // the gate is shut: the engines park on what they dequeue next

	// Nothing is in flight and the tail fits every connection's cap, so
	// the server reads all of it while the engines stay parked.
	for k, c := range cs {
		if _, err := c.Write(encode(frames, frames+tail)); err != nil {
			t.Fatalf("conn %d: write tail: %v", k, err)
		}
	}
	waitFor(t, "every frame to be read", func() bool { return read() == conns*(frames+tail) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(ctx) }()
	waitFor(t, "the drain to start", s.isDraining)
	gate.open()
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	readers.Wait()
	close(readErrs)
	for err := range readErrs {
		if err != nil {
			t.Error(err)
		}
	}
	close(answers)

	seen := make([]map[uint64]bool, conns)
	for k := range seen {
		seen[k] = make(map[uint64]bool)
	}
	var ok, shed int64
	for a := range answers {
		r := a.r
		if r.ID >= frames+tail || seen[a.conn][r.ID] {
			t.Fatalf("conn %d: response id %d out of range or repeated", a.conn, r.ID)
		}
		seen[a.conn][r.ID] = true
		switch r.Status {
		case StatusOK:
			ok++
			assertSameResult(t, int(r.ID), &r.Result, wants[int(r.ID)%len(reqs)])
		case StatusShed:
			shed++
		default:
			t.Errorf("conn %d: response %d: status %s (%s)", a.conn, r.ID, statusName(r.Status), r.Message)
		}
	}
	for k := range seen {
		if len(seen[k]) != frames+tail {
			t.Errorf("conn %d: %d of %d requests answered", k, len(seen[k]), frames+tail)
		}
	}

	flushes := flushCounts(s)
	for _, c := range []string{"idle", "size", "timer"} {
		if flushes[c] == 0 {
			t.Errorf("no %s flush: %v", c, flushes)
		}
	}
	var total int64
	for _, n := range flushes {
		total += n
	}
	st := pool.Stats()
	t.Logf("flushes %v; pool batches %d, shed %d; answers ok %d, shed %d", flushes, st.Batches, st.Rejected, ok, shed)
	if total != st.Batches+st.Rejected {
		t.Errorf("%d flushes (%v), but the pool served %d batches and shed %d", total, flushes, st.Batches, st.Rejected)
	}
	if st.Requests != ok {
		t.Errorf("pool served %d requests, %d answered OK", st.Requests, ok)
	}
	if shed > 0 && st.Rejected == 0 {
		t.Errorf("%d requests shed, but the pool shed no batch", shed)
	}
	for _, c := range cs {
		c.Close()
	}
	waitGoroutines(t, base)
}
