package server

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/pram"
)

// rawConn is a binary connection without a Client: it reads every
// response into one reused buffer, so a warm round trip allocates
// nothing on the test's side.
type rawConn struct {
	net.Conn
	lenBuf [4]byte
	buf    []byte
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{Conn: c}
}

// roundTrip sends one pre-encoded frame and returns the response
// payload, valid until the next call.
func (c *rawConn) roundTrip(t *testing.T, frame []byte) []byte {
	t.Helper()
	if _, err := c.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	return c.next(t)
}

// next reads one response payload, valid until the next call.
func (c *rawConn) next(t *testing.T) []byte {
	t.Helper()
	if _, err := io.ReadFull(c, c.lenBuf[:]); err != nil {
		t.Fatalf("read length: %v", err)
	}
	size := int(binary.LittleEndian.Uint32(c.lenBuf[:]))
	if cap(c.buf) < size {
		c.buf = make([]byte, size)
	}
	b := c.buf[:size]
	if _, err := io.ReadFull(c, b); err != nil {
		t.Fatalf("read frame: %v", err)
	}
	if len(b) < respHdrLen {
		t.Fatalf("short response: %d bytes", len(b))
	}
	return b
}

// roundTrips sends frame k times, one at a time, failing on any non-OK
// response.
func (c *rawConn) roundTrips(t *testing.T, frame []byte, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if b := c.roundTrip(t, frame); b[2] != StatusOK {
			r, err := decodeResponseFrame(b)
			if err != nil {
				t.Fatalf("decode response: %v", err)
			}
			t.Fatalf("status %s: %s", statusName(r.Status), r.Message)
		}
	}
}

// decodeRequestFrame decodes a request payload into fresh arrays.
func decodeRequestFrame(buf []byte) (uint64, string, engine.Request, error) {
	it := new(item)
	err := decodeRequest(buf, it)
	return it.id, it.tenant, it.bi.Req, err
}

// encodeRequest pre-encodes one request frame.
func encodeRequest(t *testing.T, req engine.Request) []byte {
	t.Helper()
	frame, err := appendRequestFrame(nil, 1, "", &req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return frame
}

// idleItems returns the item pool's idle items, the bytes they retain,
// and the pool's own count of those bytes.
func idleItems(s *Server) (items []*item, retained, counted int) {
	s.items.mu.Lock()
	defer s.items.mu.Unlock()
	for _, it := range s.items.free {
		retained += it.retained()
	}
	return slices.Clone(s.items.free), retained, s.items.bytes
}

// TestWireServerAllocs pins what a binary round trip costs the server
// in heap allocation. Pre-encoded frames go over a raw connection and
// the responses are read into one reused buffer, so every allocation
// the process counts is the server's. Nothing may grow with n — the
// read buffer, the decoded arrays, the result and the response frame
// are all recycled — and the fixed per-request allocations (the
// batcher's group, the flush's bookkeeping and waiter, the pool's
// future) stay under a budget.
func TestWireServerAllocs(t *testing.T) {
	const (
		// warm lets the item pool reach the connection's peak
		// concurrency, so the measured rounds draw no fresh items.
		warm   = 100
		rounds = 500
		// allocBudget bounds the fixed allocations of one round trip
		// (7 measured, with or without -race).
		allocBudget = 10
	)
	pool := engine.NewPool(engine.PoolConfig{
		Engines: 2, QueueDepth: 64,
		Engine: engine.Config{Processors: 256, Exec: pram.Native},
	})
	_, addr := newTestServer(t, Config{Pool: pool})
	conn := dialRaw(t, addr)

	measure := func(op engine.Op, n int) (bytesPerOp, allocsPerOp float64) {
		frame := encodeRequest(t, engine.Request{Op: op, List: list.RandomList(n, int64(n))})
		conn.roundTrips(t, frame, warm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn.roundTrips(t, frame, rounds)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds,
			float64(after.Mallocs-before.Mallocs) / rounds
	}
	for _, op := range []engine.Op{engine.OpRank, engine.OpMatching} {
		small, smallAllocs := measure(op, 256)
		large, largeAllocs := measure(op, 4096)
		t.Logf("%v: n=256 %.0f B/op %.1f allocs/op; n=4096 %.0f B/op %.1f allocs/op",
			op, small, smallAllocs, large, largeAllocs)
		if large-small > 1024 {
			t.Errorf("%v: n=4096 allocates %.0f B/op, n=256 %.0f B/op: server cost grows with n", op, large, small)
		}
		for _, a := range []float64{smallAllocs, largeAllocs} {
			if a > allocBudget {
				t.Errorf("%v: %.1f allocs/op, budget %d", op, a, allocBudget)
			}
		}
	}
}

// TestConnCloseWhileBatched closes a connection while parked engines
// hold its requests in pending groups, and cancels one more request's
// context. No item may return to the pool while the batcher owns it: a
// fresh connection's requests, queued into the same groups, would
// otherwise decode into arrays the batcher still holds. Once the
// engines are released, the cancelled request is answered with its
// context's error, and the fresh connection must see results
// bit-identical to per-request Do, twice over (the second round runs
// on recycled items), with no item pooled twice.
func TestConnCloseWhileBatched(t *testing.T) {
	pool, park := newParkedPool(2)
	s, addr := newTestServer(t, Config{Pool: pool, BatchSize: 64, MaxWait: time.Hour})
	parkers := parkEngines(t, s, park)
	l := list.RandomList(300, 5)
	reqs := serverTestRequests(t, l)
	queued := func(k int) func() bool {
		return func() bool { return s.bat.queued.Load() == int64(k) }
	}

	closed, err := Dial(addr, "closed")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i, req := range reqs {
		if _, err := closed.Submit(req); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	waitFor(t, "the closed connection's requests to queue", queued(len(reqs)))

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := doRequest(ctx, s, "cancelled", engine.Request{Op: engine.OpRank, List: l})
		cancelled <- err
	}()
	waitFor(t, "the cancelled request to queue", queued(len(reqs)+1))
	cancel()
	closed.Close()

	control := engine.NewPool(engine.PoolConfig{
		Engines: 2, QueueDepth: 64, Engine: engine.Config{Processors: 8}})
	defer control.Close()
	fresh, err := Dial(addr, "fresh")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer fresh.Close()
	for round := 0; round < 2; round++ {
		chans := make([]<-chan *Response, len(reqs))
		for i, req := range reqs {
			if chans[i], err = fresh.Submit(req); err != nil {
				t.Fatalf("round %d: Submit %d: %v", round, i, err)
			}
		}
		if round == 0 {
			waitFor(t, "the fresh requests to queue", queued(2*len(reqs)+1))
			if items, _, _ := idleItems(s); len(items) != 0 {
				t.Fatalf("%d items back in the pool while the batcher holds them", len(items))
			}
			park.unpark(2)
			awaitParkers(t, parkers, 2)
			if err := <-cancelled; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled request: err = %v, want context.Canceled", err)
			}
		}
		for i, ch := range chans {
			select {
			case r, ok := <-ch:
				if !ok {
					t.Fatalf("round %d: request %d: connection lost", round, i)
				}
				if r.Status != StatusOK {
					t.Fatalf("round %d: request %d: status %s (%s)", round, i, statusName(r.Status), r.Message)
				}
				want, err := control.Do(context.Background(), reqs[i])
				if err != nil {
					t.Fatalf("control %d: %v", i, err)
				}
				assertSameResult(t, i, &r.Result, want)
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: request %d: no response", round, i)
			}
		}
	}

	waitFor(t, "every response to be written", func() bool { return s.met.inflight.Value() == 0 })
	items, _, _ := idleItems(s)
	seen := make(map[*item]bool, len(items))
	for _, it := range items {
		if seen[it] {
			t.Errorf("item %p pooled twice", it)
		}
		seen[it] = true
	}
}

// TestLargeFrameRetention sends frames far past retainCap and checks
// that nothing they grew outlives them. A frame refused for its size
// never reaches an engine arena, so the live heap shows what the wire
// path alone kept: neither the connection's read buffer nor the item
// that carried the frame. After a served frame, the idle items stay
// within retainCap in all. The Client's read buffer goes through the
// same frameBuf.
func TestLargeFrameRetention(t *testing.T) {
	const big = 1 << 17
	s, addr := newTestServer(t, Config{MaxNodes: big})
	conn := dialRaw(t, addr)
	conn.roundTrips(t, encodeRequest(t, engine.Request{Op: engine.OpRank, List: list.RandomList(64, 1)}), 3)

	// A 2 MiB frame over MaxNodes is read and decoded in full, then
	// refused.
	over := encodeRequest(t, engine.Request{Op: engine.OpRank, List: list.RandomList(2*big, 3)})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if b := conn.roundTrip(t, over); b[2] != StatusInvalid {
		t.Fatalf("oversized list: status %s, want invalid", statusName(b[2]))
	}
	// The handler releases its item just after the write, so poll.
	var grown int64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		runtime.ReadMemStats(&after)
		if grown = int64(after.HeapAlloc) - int64(before.HeapAlloc); grown <= retainCap {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live heap still %d bytes up after one %d-byte frame; cap %d", grown, len(over), retainCap)
		}
	}
	runtime.KeepAlive(over)

	// A served 1 MiB frame decodes into 1 MiB, and its ranks and
	// response frame take 1 MiB more each.
	conn.roundTrips(t, encodeRequest(t, engine.Request{Op: engine.OpRank, List: list.RandomList(big, 2)}), 1)
	waitFor(t, "the response to be released", func() bool { return s.met.inflight.Value() == 0 })
	if _, retained, counted := idleItems(s); retained != counted || retained > retainCap {
		t.Errorf("idle items retain %d bytes (pool counts %d), cap %d", retained, counted, retainCap)
	}

	var keep []byte
	frameBuf(&keep, 64)
	if b := frameBuf(&keep, retainCap+1); len(b) != retainCap+1 || cap(keep) != 64 {
		t.Errorf("frameBuf kept a %d-byte buffer past the cap", cap(keep))
	}
	if frameBuf(&keep, 100); cap(keep) != 100 {
		t.Errorf("frameBuf did not keep a 100-byte buffer: cap %d", cap(keep))
	}
}
