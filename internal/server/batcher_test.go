package server

// Tests for the batcher's flush policy: a group is held only while
// every engine is busy. An idle pool flushes at once (cause "idle"), a
// completion wake-up flushes a held group the moment an engine frees,
// MaxWait caps the hold when engines stay busy (cause "timer"), and a
// closed loop over mixed classes never strands a request.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
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
