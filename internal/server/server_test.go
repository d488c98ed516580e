package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/obs"
	"parlist/internal/pram"
)

// waitGoroutines polls until the goroutine count drops back to want,
// failing the test if it does not within five seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d running, want ≤ %d", runtime.NumGoroutine(), want)
}

// newTestServer builds a running server (pool included unless cfg.Pool
// is set) with a binary listener, and registers a drain-on-cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Pool == nil {
		cfg.Pool = engine.NewPool(engine.PoolConfig{
			Engines: 2, QueueDepth: 64,
			Engine: engine.Config{Processors: 8},
		})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.ServeBinary(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ln.Addr().String()
}

// parkObserver is a pool observer that parks the first n dequeue
// events until released. A parked request keeps its engine
// busy, which is how the tests make the batcher hold groups: it holds
// one only while every engine is busy.
type parkObserver struct {
	engines int // dequeues to park: one per engine of its pool

	mu      sync.Mutex
	left    int
	parked  chan struct{}
	release chan struct{}
	// free, once closed, releases every parked dequeue: a failing test
	// must not leave an engine parked under the server's drain.
	free chan struct{}
}

func (o *parkObserver) Observe(e obs.Event) {
	if e.Kind != obs.KindDequeue {
		return
	}
	o.mu.Lock()
	park := o.left > 0
	if park {
		o.left--
	}
	o.mu.Unlock()
	if park {
		o.parked <- struct{}{}
		select {
		case <-o.release:
		case <-o.free:
		}
	}
}

// unpark releases k parked dequeues.
func (o *parkObserver) unpark(k int) {
	for i := 0; i < k; i++ {
		o.release <- struct{}{}
	}
}

// newParkedPool returns a pool of the given size whose first `engines`
// dequeues park on the returned observer.
func newParkedPool(engines int) (*engine.EnginePool, *parkObserver) {
	o := &parkObserver{engines: engines, left: engines, parked: make(chan struct{}, engines),
		release: make(chan struct{}, engines), free: make(chan struct{})}
	return engine.NewPool(engine.PoolConfig{
		Engines: engines, QueueDepth: 64,
		Engine:   engine.Config{Processors: 8},
		Observer: o,
	}), o
}

// parkEngines sends one request per engine through s and waits until
// each has parked, so every engine reads busy. The returned channel
// yields each parker's outcome once it is released and served. Parks
// still held when the test ends are freed before earlier cleanups (the
// server's drain) run.
func parkEngines(t *testing.T, s *Server, o *parkObserver) <-chan error {
	t.Helper()
	t.Cleanup(func() { close(o.free) })
	done := make(chan error, o.engines)
	l := &list.List{Next: []int{1, -1}, Head: 0}
	for i := 0; i < o.engines; i++ {
		go func() {
			_, err := doRequest(context.Background(), s, "parker", engine.Request{Op: engine.OpRank, List: l})
			done <- err
		}()
		select {
		case <-o.parked:
		case <-time.After(5 * time.Second):
			t.Fatalf("engine %d never parked", i)
		}
	}
	return done
}

// doRequest submits req on a pooled item, waits for its outcome and
// releases the item afterwards, as the HTTP handler does.
func doRequest(ctx context.Context, s *Server, tenant string, req engine.Request) (byte, error) {
	it := s.items.get()
	it.bi.Req = req
	it.bi.Ctx = ctx
	it.tenant = tenant
	out := make(chan *item, 1)
	it.out = out
	s.submit(it, "test")
	<-out
	st, err := it.status, it.err
	s.release(it)
	return st, err
}

// awaitParkers waits for k released parkers and fails on any error.
func awaitParkers(t *testing.T, done <-chan error, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("parker: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parker not served after release")
		}
	}
}

// waitFor polls cond until it holds, failing after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// serverTestRequests mirrors the engine-level coverage: one request
// per op plus algorithm variants, all wire-encodable.
func serverTestRequests(t *testing.T, l *list.List) []engine.Request {
	t.Helper()
	n := l.Len()
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i%5 - 2
	}
	m := pram.New(8)
	lab, k := matching.PartitionIterated(m, l, nil, 3)
	m.Close()
	return []engine.Request{
		{Op: engine.OpMatching, List: l, Seed: 7},
		{Op: engine.OpMatching, List: l, Algorithm: engine.AlgoRandomized, Seed: 7},
		{Op: engine.OpPartition, List: l, Iters: 2},
		{Op: engine.OpThreeColor, List: l},
		{Op: engine.OpMIS, List: l},
		{Op: engine.OpRank, List: l},
		{Op: engine.OpRank, List: l, Rank: engine.RankWyllie},
		{Op: engine.OpPrefix, List: l, Values: vals},
		{Op: engine.OpSchedule, List: l, Labels: lab, K: k},
	}
}

// assertSameResult compares a wire result against an in-process one.
// The wire ships Stats reduced to Time and Work, so those are compared
// field-wise instead of DeepEqual on the whole Result.
func assertSameResult(t *testing.T, i int, got *engine.Result, want *engine.Result) {
	t.Helper()
	type flat struct {
		Algorithm                    string
		In                           []bool
		Labels, Ranks                []int
		Size, Sets, Rounds, TableSze int
		Time, Work                   int64
	}
	f := func(r *engine.Result) flat {
		return flat{r.Algorithm, r.In, r.Labels, r.Ranks,
			r.Size, r.Sets, r.Rounds, r.TableSize, r.Stats.Time, r.Stats.Work}
	}
	g, w := f(got), f(want)
	if fmt.Sprintf("%+v", g) != fmt.Sprintf("%+v", w) {
		t.Errorf("request %d: wire result differs:\n got %+v\nwant %+v", i, g, w)
	}
}

// TestWireBitIdentity drives all seven ops through the binary framing
// and checks every result against per-request Do on an identically
// configured pool.
func TestWireBitIdentity(t *testing.T) {
	l := list.RandomList(700, 23)
	reqs := serverTestRequests(t, l)
	ctx := context.Background()

	control := engine.NewPool(engine.PoolConfig{
		Engines: 2, QueueDepth: 64, Engine: engine.Config{Processors: 8}})
	defer control.Close()

	_, addr := newTestServer(t, Config{BatchSize: 4, MaxWait: time.Millisecond})
	c, err := Dial(addr, "bit-identity")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	for i, req := range reqs {
		want, err := control.Do(ctx, req)
		if err != nil {
			t.Fatalf("control %d: %v", i, err)
		}
		resp, err := c.Do(ctx, req)
		if err != nil {
			t.Fatalf("wire %d: %v", i, err)
		}
		assertSameResult(t, i, &resp.Result, want)
		tm := resp.Timing
		if tm.Enqueue.IsZero() || tm.Flush.Before(tm.Enqueue) ||
			tm.Service.Before(tm.Flush) || tm.Respond.Before(tm.Service) {
			t.Errorf("request %d: timestamps out of order: %+v", i, tm)
		}
		if resp.Batched < 1 {
			t.Errorf("request %d: batched = %d", i, resp.Batched)
		}
	}
}

// TestWireCoalescedBatch parks both engines, then fires BatchSize
// identical-class requests concurrently with a long MaxWait, so only
// the size trigger can flush them: every response must report the full
// fused size and carry a result identical to per-request Do.
func TestWireCoalescedBatch(t *testing.T) {
	const fuse = 8
	l := list.RandomList(500, 11)
	ctx := context.Background()

	control := engine.NewPool(engine.PoolConfig{
		Engines: 2, QueueDepth: 64, Engine: engine.Config{Processors: 8}})
	defer control.Close()
	want, err := control.Do(ctx, engine.Request{Op: engine.OpRank, List: l})
	if err != nil {
		t.Fatalf("control: %v", err)
	}

	pool, park := newParkedPool(2)
	s, addr := newTestServer(t, Config{Pool: pool, BatchSize: fuse, MaxWait: 5 * time.Second})
	parkers := parkEngines(t, s, park)
	c, err := Dial(addr, "coalesce")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	resps := make([]*Response, fuse)
	errs := make([]error, fuse)
	for i := 0; i < fuse; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Do(ctx, engine.Request{Op: engine.OpRank, List: l})
		}(i)
	}
	waitFor(t, "the size flush", func() bool { return s.met.flushes["size"].Value() == 1 })
	park.unpark(2)
	wg.Wait()
	awaitParkers(t, parkers, 2)
	for i := 0; i < fuse; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if resps[i].Batched != fuse {
			t.Errorf("request %d: batched = %d, want %d", i, resps[i].Batched, fuse)
		}
		assertSameResult(t, i, &resps[i].Result, want)
	}
	var sb strings.Builder
	s.Registry().WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `parlistd_batch_flush_total{cause="size"} 1`) {
		t.Errorf("size-triggered flush not recorded:\n%s", sb.String())
	}
}

// TestHTTPAllOps round-trips every op through the JSON framing.
func TestHTTPAllOps(t *testing.T) {
	l := list.RandomList(300, 29)
	reqs := []struct {
		path string
		body string
	}{
		{"matching", `{"seed": 7}`},
		{"partition", `{"iters": 2}`},
		{"threecolor", `{}`},
		{"mis", `{}`},
		{"rank", `{"rank": "wyllie"}`},
		{"prefix", fmt.Sprintf(`{"values": %s}`, jsonInts(make([]int, l.Len())))},
		{"schedule", ``}, // filled below
	}
	m := pram.New(8)
	lab, k := matching.PartitionIterated(m, l, nil, 3)
	m.Close()
	reqs[6].body = fmt.Sprintf(`{"labels": %s, "k": %d}`, jsonInts(lab), k)

	s, _ := newTestServer(t, Config{BatchSize: 2, MaxWait: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range reqs {
		var fields map[string]any
		if err := json.Unmarshal([]byte(tc.body), &fields); err != nil {
			t.Fatalf("%s: bad test body: %v", tc.path, err)
		}
		fields["next"] = l.Next
		fields["head"] = l.Head
		body, _ := json.Marshal(fields)
		resp, err := http.Post(ts.URL+"/v1/"+tc.path, "application/json",
			bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, raw)
		}
		var jr jsonResponse
		if err := json.Unmarshal(raw, &jr); err != nil {
			t.Fatalf("%s: decode: %v", tc.path, err)
		}
		if jr.Op != tc.path {
			t.Errorf("%s: op = %q", tc.path, jr.Op)
		}
		if jr.Batched < 1 || jr.Timing.EnqueueNS == 0 || jr.Timing.RespondNS < jr.Timing.EnqueueNS {
			t.Errorf("%s: bad batching/timing: %+v", tc.path, jr)
		}
	}
}

func jsonInts(v []int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestHTTPErrors maps admission failures onto HTTP codes.
func TestHTTPErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{
		BatchSize: 1, MaxWait: time.Millisecond,
		MaxNodes: 16, RatePerSec: 0.001, Burst: 2,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body, tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if r := post("/v1/rank", `{"next": "nope"}`, ""); r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", r.StatusCode)
	}
	if r := post("/v1/rank", `{}`, ""); r.StatusCode != http.StatusBadRequest {
		t.Errorf("nil list: status %d", r.StatusCode)
	}
	if r := post("/v1/rank", `{"next": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,-1]}`, ""); r.StatusCode != http.StatusBadRequest {
		t.Errorf("over node cap: status %d", r.StatusCode)
	}
	if r := post("/v1/rank", `{"next": [-1], "variant": "mystery"}`, ""); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad variant: status %d", r.StatusCode)
	}
	if r := post("/v1/rank", `{"next": [-1], "rank": "mystery"}`, ""); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scheme: status %d", r.StatusCode)
	}

	// Tenant over-limit: burst of 2, then empty bucket.
	for i := 0; i < 2; i++ {
		if r := post("/v1/rank", `{"next": [1,-1]}`, "hog"); r.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, r.StatusCode)
		}
	}
	r := post("/v1/rank", `{"next": [1,-1]}`, "hog")
	if r.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-limit: status %d, want 429", r.StatusCode)
	}
	var je jsonError
	json.NewDecoder(r.Body).Decode(&je)
	if je.Code != "over_limit" {
		t.Errorf("over-limit code = %q", je.Code)
	}
	// Another tenant's bucket is untouched.
	if r := post("/v1/rank", `{"next": [1,-1]}`, "polite"); r.StatusCode != http.StatusOK {
		t.Errorf("other tenant: status %d", r.StatusCode)
	}

	var sb strings.Builder
	s.Registry().WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `parlistd_tenant_shed_total{tenant="hog",cause="over_limit"} 1`) {
		t.Errorf("shed counter missing:\n%s", sb.String())
	}
}

// TestTenantNameCap: a tenant name one byte over MaxTenantLen is
// invalid on both framings (HTTP 400), and a name at the cap is served.
func TestTenantNameCap(t *testing.T) {
	s, addr := newTestServer(t, Config{BatchSize: 1, MaxWait: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	l := &list.List{Next: []int{1, -1}}
	for _, tc := range []struct {
		n    int
		http int
		code byte
	}{
		{MaxTenantLen, http.StatusOK, StatusOK},
		{MaxTenantLen + 1, http.StatusBadRequest, StatusInvalid},
	} {
		tenant := strings.Repeat("t", tc.n)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/rank", strings.NewReader(`{"next": [1,-1]}`))
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.http {
			t.Errorf("HTTP, %d-byte tenant: status %d, want %d", tc.n, resp.StatusCode, tc.http)
		}

		c, err := Dial(addr, tenant)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		_, err = c.Do(context.Background(), engine.Request{Op: engine.OpRank, List: l})
		c.Close()
		var se *StatusError
		switch {
		case tc.code == StatusOK && err != nil:
			t.Errorf("binary, %d-byte tenant: %v", tc.n, err)
		case tc.code != StatusOK && (!errors.As(err, &se) || se.Code != tc.code):
			t.Errorf("binary, %d-byte tenant: err = %v, want status invalid", tc.n, err)
		}
	}
}

// TestStatuszTenantQuoted: a binary frame's tenant may hold any bytes,
// so /statusz prints tenant names quoted. A tenant whose name carries a
// newline and a fake bucket line spends its burst, and no line of the
// page starts with the forged tenant.
func TestStatuszTenantQuoted(t *testing.T) {
	s, addr := newTestServer(t, Config{BatchSize: 1, MaxWait: time.Millisecond, RatePerSec: 0.001, Burst: 5})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const tenant = "x\n  forged-tenant  0.0 / 5 tokens"
	c, err := Dial(addr, tenant)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	l := &list.List{Next: []int{1, -1}}
	for i := 0; i < 5; i++ {
		if _, err := c.Do(context.Background(), engine.Request{Op: engine.OpRank, List: l}); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	r, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatalf("/statusz: %v", err)
	}
	page, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, line := range strings.Split(string(page), "\n") {
		if strings.HasPrefix(line, "  forged-tenant") {
			t.Errorf("/statusz shows a forged line %q:\n%s", line, page)
		}
	}
	if !strings.Contains(string(page), fmt.Sprintf("%q", tenant)) {
		t.Errorf("/statusz lacks the quoted tenant:\n%s", page)
	}
}

// TestShedTenantFold: 1,000 invented tenants, each shed once from one
// of eight goroutines, leave at most maxShedTenants+1 tenant values on
// parlistd_tenant_shed_total — the first maxShedTenants tenants and the
// folded one — and their counts sum to 1,000. A tenant that got its own
// series keeps it after the fold starts.
func TestShedTenantFold(t *testing.T) {
	reg := obs.NewRegistry()
	m := newServerMetrics(reg)
	const n, shedders = 1000, 8
	m.sheds("invented-0", "over_limit").Inc() // before the fold
	var wg sync.WaitGroup
	for g := 0; g < shedders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1 + g; i < n; i += shedders {
				cause := "over_limit"
				if i%2 == 1 {
					cause = "inbox_full"
				}
				m.sheds(fmt.Sprintf("invented-%d", i), cause).Inc()
			}
		}()
	}
	wg.Wait()
	scrape := func() string {
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		return sb.String()
	}
	page := scrape()
	tenants := map[string]bool{}
	var total int64
	for _, line := range strings.Split(page, "\n") {
		rest, ok := strings.CutPrefix(line, `parlistd_tenant_shed_total{tenant="`)
		if !ok {
			continue
		}
		tenant, _, _ := strings.Cut(rest, `"`)
		tenants[tenant] = true
		var v int64
		fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v)
		total += v
	}
	if len(tenants) > maxShedTenants+1 {
		t.Errorf("%d tenant label values, want at most %d", len(tenants), maxShedTenants+1)
	}
	if total != n {
		t.Errorf("shed series sum to %d, want %d", total, n)
	}
	m.sheds("invented-0", "over_limit").Inc()
	if page := scrape(); !strings.Contains(page, `parlistd_tenant_shed_total{tenant="invented-0",cause="over_limit"} 2`) {
		t.Errorf("an early tenant lost its own series:\n%s", page)
	}
}

// TestMalformedListIsInvalid: a well-framed request whose list is
// malformed — nodes unreachable from the head, a self-loop, a pointer
// out of range, two tails — is the client's fault. Both framings must
// answer it with the invalid status (HTTP 400), on the simulated
// executor, whose validation walks the list, and on the native one,
// whose rank walk certifies reachability.
func TestMalformedListIsInvalid(t *testing.T) {
	bodies := []string{
		`{"next":[1,-1,3,2]}`,
		`{"next":[1,1,-1]}`,
		`{"next":[1,7,-1]}`,
		`{"next":[-1,-1]}`,
	}
	for _, exec := range []pram.Exec{pram.Sequential, pram.Native} {
		pool := engine.NewPool(engine.PoolConfig{Engines: 2, QueueDepth: 64,
			Engine: engine.Config{Processors: 8, Exec: exec}})
		s, addr := newTestServer(t, Config{Pool: pool, BatchSize: 4, MaxWait: time.Millisecond})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		c, err := Dial(addr, "")
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		for _, body := range bodies {
			resp, err := http.Post(ts.URL+"/v1/rank", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: %v", exec, body, err)
			}
			var je jsonError
			json.NewDecoder(resp.Body).Decode(&je)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || je.Code != "invalid" {
				t.Errorf("%s HTTP %s: status %d code %q (%s), want 400 invalid",
					exec, body, resp.StatusCode, je.Code, je.Error)
			}

			var jr jsonRequest
			if err := json.Unmarshal([]byte(body), &jr); err != nil {
				t.Fatal(err)
			}
			_, err = c.Do(context.Background(), engine.Request{Op: engine.OpRank,
				List: &list.List{Next: jr.Next, Head: jr.Head}})
			var se *StatusError
			if !errors.As(err, &se) || se.Code != StatusInvalid {
				t.Errorf("%s binary %s: err = %v, want status invalid", exec, body, err)
			}
		}
	}
}

// TestFailureResponseStamps: a failure response carries the stamps of
// the stages its request reached. A list the engine refuses as
// malformed reached service, so all four are set and ordered; a list
// over MaxNodes was refused at admission, so only Enqueue and Respond
// are.
func TestFailureResponseStamps(t *testing.T) {
	_, addr := newTestServer(t, Config{BatchSize: 4, MaxWait: time.Millisecond, MaxNodes: 8})
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var se *StatusError
	_, err = c.Do(context.Background(), engine.Request{Op: engine.OpRank, List: &list.List{Next: []int{1, -1, 3, 2}}})
	if !errors.As(err, &se) || se.Code != StatusInvalid {
		t.Fatalf("malformed list: err = %v, want status invalid", err)
	}
	if tm := se.Timing; tm.Enqueue.IsZero() || tm.Flush.Before(tm.Enqueue) ||
		tm.Service.Before(tm.Flush) || tm.Respond.Before(tm.Service) {
		t.Errorf("malformed list: stamps missing or out of order: %+v", tm)
	}
	_, err = c.Do(context.Background(), engine.Request{Op: engine.OpRank, List: list.RandomList(9, 1)})
	if !errors.As(err, &se) || se.Code != StatusInvalid {
		t.Fatalf("list over MaxNodes: err = %v, want status invalid", err)
	}
	if tm := se.Timing; tm.Enqueue.IsZero() || !tm.Flush.IsZero() || !tm.Service.IsZero() || tm.Respond.Before(tm.Enqueue) {
		t.Errorf("list over MaxNodes: stamps %+v, want Enqueue ≤ Respond only", tm)
	}
}

// TestUnservableInputIsInvalid: a one-node partition (f(a, a) is
// undefined), a one-node Match3, a schedule whose K exceeds max(n, 6)
// or whose labels fall outside [0, K), a partition iters or a
// matching or MIS i above engine.MaxIterations, and a Match2 asking
// for 2^31-1 processors (above engine.MaxProcessors) are the client's
// fault. Both framings answer 400 invalid on the simulated and native
// executors, the native engines at four parties included, no machine
// is rebuilt, and the server goes on serving the same connection; at
// the cap the iteration counts are served. So is a request asking for
// more processors than its list has nodes, refused at admission since
// the simulated fallback's cost grows with p; at p = n it is served.
// The one-node partition, the schedule with K = 2^30 and the Match2
// used to end the process.
func TestUnservableInputIsInvalid(t *testing.T) {
	for _, exec := range []pram.Exec{pram.Sequential, pram.Native} {
		pool := engine.NewPool(engine.PoolConfig{Engines: 2, QueueDepth: 64,
			Engine: engine.Config{Processors: 8, Exec: exec, Workers: 4}})
		s, addr := newTestServer(t, Config{Pool: pool, BatchSize: 4, MaxWait: time.Millisecond})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		c, err := Dial(addr, "")
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		one := &list.List{Next: []int{list.Nil}, Head: 0}
		four := &list.List{Next: []int{1, 2, 3, list.Nil}, Head: 0}
		over := engine.MaxIterations + 1
		for _, tc := range []struct {
			path string
			body string
			req  engine.Request
		}{
			{"/v1/partition", `{"next":[-1],"head":0,"iters":1}`,
				engine.Request{Op: engine.OpPartition, List: one, Iters: 1}},
			{"/v1/matching", `{"next":[-1],"algorithm":"match3"}`,
				engine.Request{Op: engine.OpMatching, List: one, Algorithm: engine.AlgoMatch3}},
			{"/v1/schedule", `{"next":[1,2,3,-1],"labels":[0,1,0,0],"k":1073741824}`,
				engine.Request{Op: engine.OpSchedule, List: four, Labels: []int{0, 1, 0, 0}, K: 1 << 30}},
			{"/v1/schedule", `{"next":[1,2,3,-1],"labels":[0,1,2,0],"k":2}`,
				engine.Request{Op: engine.OpSchedule, List: four, Labels: []int{0, 1, 2, 0}, K: 2}},
			{"/v1/partition", fmt.Sprintf(`{"next":[1,2,3,-1],"iters":%d}`, over),
				engine.Request{Op: engine.OpPartition, List: four, Iters: over}},
			{"/v1/matching", fmt.Sprintf(`{"next":[1,2,3,-1],"i":%d}`, over),
				engine.Request{Op: engine.OpMatching, List: four, I: over}},
			{"/v1/mis", fmt.Sprintf(`{"next":[1,2,3,-1],"i":%d}`, over),
				engine.Request{Op: engine.OpMIS, List: four, I: over}},
			{"/v1/matching", `{"next":[1,2,3,-1],"algorithm":"match2","processors":2147483647}`,
				engine.Request{Op: engine.OpMatching, List: four, Algorithm: engine.AlgoMatch2, Processors: math.MaxInt32}},
			{"/v1/matching", `{"next":[1,2,3,-1],"algorithm":"match2","processors":5}`,
				engine.Request{Op: engine.OpMatching, List: four, Algorithm: engine.AlgoMatch2, Processors: 5}},
			{"/v1/rank", `{"next":[1,2,3,-1],"rank":"loadbalanced","processors":5}`,
				engine.Request{Op: engine.OpRank, List: four, Rank: engine.RankLoadBalanced, Processors: 5}},
		} {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("%s %s: %v", exec, tc.body, err)
			}
			var je jsonError
			json.NewDecoder(resp.Body).Decode(&je)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || je.Code != "invalid" {
				t.Errorf("%s HTTP %s: status %d code %q (%s), want 400 invalid",
					exec, tc.body, resp.StatusCode, je.Code, je.Error)
			}
			_, err = c.Do(context.Background(), tc.req)
			var se *StatusError
			if !errors.As(err, &se) || se.Code != StatusInvalid {
				t.Errorf("%s binary %s: err = %v, want status invalid", exec, tc.body, err)
			}
		}

		if got := rebuilds(pool); got != 0 {
			t.Errorf("%s: the refusals rebuilt %d machines", exec, got)
		}

		// At the cap every iteration parameter is served, and so is
		// p = n, on both wire forms.
		at := engine.MaxIterations
		for _, tc := range []struct {
			path string
			body string
			req  engine.Request
		}{
			{"/v1/partition", fmt.Sprintf(`{"next":[1,2,3,-1],"iters":%d}`, at),
				engine.Request{Op: engine.OpPartition, List: four, Iters: at}},
			{"/v1/matching", fmt.Sprintf(`{"next":[1,2,3,-1],"i":%d}`, at),
				engine.Request{Op: engine.OpMatching, List: four, I: at}},
			{"/v1/mis", fmt.Sprintf(`{"next":[1,2,3,-1],"i":%d}`, at),
				engine.Request{Op: engine.OpMIS, List: four, I: at}},
			{"/v1/matching", `{"next":[1,2,3,-1],"algorithm":"match2","processors":4}`,
				engine.Request{Op: engine.OpMatching, List: four, Algorithm: engine.AlgoMatch2, Processors: 4}},
			{"/v1/rank", `{"next":[1,2,3,-1],"rank":"loadbalanced","processors":4}`,
				engine.Request{Op: engine.OpRank, List: four, Rank: engine.RankLoadBalanced, Processors: 4}},
		} {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("%s %s: %v", exec, tc.body, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s HTTP %s: status %d, want 200", exec, tc.body, resp.StatusCode)
			}
			if r, err := c.Do(context.Background(), tc.req); err != nil || r.Status != StatusOK {
				t.Errorf("%s binary %s: %+v, %v", exec, tc.body, r, err)
			}
		}

		two := &list.List{Next: []int{1, list.Nil}, Head: 0}
		r, err := c.Do(context.Background(), engine.Request{Op: engine.OpPartition, List: two, Iters: 1})
		if err != nil || r.Status != StatusOK || len(r.Result.Labels) != 2 {
			t.Errorf("%s binary: two-node partition after the refusals: %+v, %v", exec, r, err)
		}
		resp, err := http.Post(ts.URL+"/v1/partition", "application/json",
			strings.NewReader(`{"next":[1,-1],"iters":1}`))
		if err != nil {
			t.Fatalf("%s: %v", exec, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s HTTP: two-node partition after the refusals: status %d", exec, resp.StatusCode)
		}
	}
}

// rebuilds sums the pool's machine replacements.
func rebuilds(p *engine.EnginePool) int64 {
	var n int64
	for _, e := range p.Stats().PerEngine {
		n += e.Stats.Rebuilds
	}
	return n
}

// TestRequestSeriesFromStartup: every parlistd_requests_total series —
// both framings × the seven ops — is exported before the first request,
// and each route's name is its op's String, which labels the series
// and the JSON response.
func TestRequestSeriesFromStartup(t *testing.T) {
	s, _ := newTestServer(t, Config{BatchSize: 1, MaxWait: time.Millisecond})
	var sb strings.Builder
	s.Registry().WritePrometheus(&sb)
	for name, op := range opsByName {
		if op.String() != name {
			t.Errorf("route %q serves op %v named %q", name, int(op), op.String())
		}
		for _, proto := range protos {
			series := fmt.Sprintf("parlistd_requests_total{proto=%q,op=%q} 0", proto, name)
			if !strings.Contains(sb.String(), series) {
				t.Errorf("missing %s", series)
			}
		}
	}
}

// TestMalformedFrames sends broken binary frames and expects an
// Invalid response followed by connection close.
func TestMalformedFrames(t *testing.T) {
	_, addr := newTestServer(t, Config{BatchSize: 1, MaxWait: time.Millisecond, MaxFrame: 1 << 16})

	l := &list.List{Next: []int{1, -1}, Head: 0}
	valid, err := appendRequestFrame(nil, 1, "", &engine.Request{Op: engine.OpRank, List: l})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	cases := []struct {
		name  string
		frame func() []byte
	}{
		{"bad magic", func() []byte { f := bytes.Clone(valid); f[4] = 0xff; return f }},
		{"bad version", func() []byte { f := bytes.Clone(valid); f[5] = 99; return f }},
		{"unknown algo code", func() []byte { f := bytes.Clone(valid); f[8] = 200; return f }},
		{"unknown flags", func() []byte { f := bytes.Clone(valid); f[7] = 0x80; return f }},
		{"truncated header", func() []byte {
			return append(binary.LittleEndian.AppendUint32(nil, 8), valid[4:12]...)
		}},
		{"node count past frame", func() []byte {
			f := bytes.Clone(valid)
			binary.LittleEndian.PutUint64(f[4+48:], 1<<40)
			return f
		}},
		{"trailing bytes", func() []byte {
			f := append(bytes.Clone(valid), 0xaa)
			binary.LittleEndian.PutUint32(f, uint32(len(f)-4))
			return f
		}},
		{"oversized frame", func() []byte {
			return binary.LittleEndian.AppendUint32(nil, 1<<20)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.frame()); err != nil {
				t.Fatalf("write: %v", err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var lenBuf [4]byte
			if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
				t.Fatalf("read length: %v", err)
			}
			buf := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
			if _, err := io.ReadFull(conn, buf); err != nil {
				t.Fatalf("read frame: %v", err)
			}
			r, err := decodeResponseFrame(buf)
			if err != nil {
				t.Fatalf("decode response: %v", err)
			}
			if r.Status != StatusInvalid {
				t.Errorf("status = %s, want invalid (%s)", statusName(r.Status), r.Message)
			}
			// The server closes the connection after a framing error.
			if _, err := conn.Read(lenBuf[:1]); err == nil {
				t.Errorf("connection still open after bad frame")
			}
		})
	}
}

// TestBinaryReadDeadlines plays two hostile clients against the binary
// listener, with its read deadlines shortened: one connects and sends
// nothing, the other sends a length prefix and stalls. Each must be
// closed without a response, the stalled one at the frame deadline,
// well before the idle one. A pipelined client that keeps sending
// outlives the idle deadline, and nothing leaks once the server drains.
func TestBinaryReadDeadlines(t *testing.T) {
	const idle, frame = time.Second, 100 * time.Millisecond
	defer func(i, f time.Duration) { binaryIdleTimeout, binaryFrameTimeout = i, f }(binaryIdleTimeout, binaryFrameTimeout)
	binaryIdleTimeout, binaryFrameTimeout = idle, frame

	base := runtime.NumGoroutine()
	pool := engine.NewPool(engine.PoolConfig{
		Engines: 2, QueueDepth: 16, Engine: engine.Config{Processors: 4}})
	s, err := New(Config{Pool: pool, BatchSize: 1, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.ServeBinary(ln)
	addr := ln.Addr().String()

	// hostile dials, sends prefix, and reports how long the server took
	// to close the connection; a response byte or a connection still
	// open after 5 s is an error.
	hostile := func(name string, prefix []byte) <-chan time.Duration {
		closed := make(chan time.Duration, 1)
		start := time.Now() // before the server can arm its first deadline
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		if _, err := conn.Write(prefix); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		go func() {
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var b [1]byte
			n, err := conn.Read(b[:])
			if n != 0 || !errors.Is(err, io.EOF) {
				t.Errorf("%s: read %d bytes, err %v; want the server to close with no response", name, n, err)
			}
			closed <- time.Since(start)
		}()
		return closed
	}
	stalledC := hostile("stalled", binary.LittleEndian.AppendUint32(nil, 64))
	idleC := hostile("idle", nil)

	c, err := Dial(addr, "pipelined")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l := list.RandomList(100, 1)
	var chs []<-chan *Response
	for end := time.Now().Add(idle + 2*frame); time.Now().Before(end); time.Sleep(frame) {
		ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: l})
		if err != nil {
			t.Fatalf("pipelined client cut off: %v", err)
		}
		chs = append(chs, ch)
	}
	for i, ch := range chs {
		if r := <-ch; r.Status != StatusOK {
			t.Errorf("pipelined request %d: %s: %s", i, statusName(r.Status), r.Message)
		}
	}

	stalled, idled := <-stalledC, <-idleC
	if stalled < frame || stalled >= idle {
		t.Errorf("stalled frame closed after %v, want within [%v, %v)", stalled, frame, idle)
	}
	if idled < idle {
		t.Errorf("idle connection closed after %v, before the %v idle deadline", idled, idle)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitGoroutines(t, base)
}

// TestConnInflightCap pipelines more frames than one binary
// connection may hold on a raw connection while both engines are
// parked and the batcher holds every group (BatchSize past the frame
// count, an hour-long MaxWait). The server stops reading at the cap,
// so the batcher never holds more than it of one connection's frames.
// Once the engines are released every frame is answered bit-identical
// to per-request Do, and closing the connection ends both of its
// goroutines. The "frames" case sends maxConnInflight+8 frames at the
// default MaxFrame, where the cap is maxConnInflight frames; the
// "bytes" case sends 12 frames of a quarter of MaxFrame each, where
// the cap is MaxFrame bytes: 4 frames.
func TestConnInflightCap(t *testing.T) {
	l := list.RandomList(300, 13)
	rank := []engine.Request{{Op: engine.OpRank, List: l}}
	frame, err := appendRequestFrame(nil, 0, "", &rank[0])
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	quarter := len(frame) - 4 // the payload, after the length prefix
	for _, tc := range []struct {
		name        string
		reqs        []engine.Request
		maxFrame    int
		frames, cap int
	}{
		{"frames", serverTestRequests(t, l), 0, maxConnInflight + 8, maxConnInflight},
		{"bytes", rank, 4 * quarter, 12, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs := tc.reqs
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

			pool, park := newParkedPool(2)
			s, addr := newTestServer(t, Config{Pool: pool, BatchSize: 2 * tc.frames, MaxWait: time.Hour, MaxFrame: tc.maxFrame})
			base := runtime.NumGoroutine()
			parkers := parkEngines(t, s, park)
			var stream []byte
			for i := 0; i < tc.frames; i++ {
				var err error
				if stream, err = appendRequestFrame(stream, uint64(i), "", &reqs[i%len(reqs)]); err != nil {
					t.Fatalf("encode %d: %v", i, err)
				}
			}
			conn := dialRaw(t, addr)
			if _, err := conn.Write(stream); err != nil {
				t.Fatalf("write: %v", err)
			}
			waitFor(t, "the connection's cap to fill", func() bool { return s.bat.queued.Load() >= int64(tc.cap) })
			// The rest of the frames sit in the socket: give a read loop
			// that ignored the cap time to queue them.
			for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
				if q := s.bat.queued.Load(); q > int64(tc.cap) {
					t.Fatalf("the batcher holds %d of one connection's frames, cap %d", q, tc.cap)
				}
			}
			park.unpark(2)
			awaitParkers(t, parkers, 2)

			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			seen := make(map[uint64]bool, tc.frames)
			for range tc.frames {
				r, err := decodeResponseFrame(conn.next(t))
				if err != nil {
					t.Fatalf("decode response: %v", err)
				}
				if r.Status != StatusOK || r.ID >= uint64(tc.frames) || seen[r.ID] {
					t.Fatalf("response id %d: status %s (%s), or an id out of range or repeated", r.ID, statusName(r.Status), r.Message)
				}
				seen[r.ID] = true
				assertSameResult(t, int(r.ID), &r.Result, wants[int(r.ID)%len(reqs)])
			}
			conn.Close()
			waitGoroutines(t, base)
		})
	}
}

// TestClientReadsWhileWriteBlocked pipelines far more large requests
// from one goroutine than the server holds per connection. Once the
// server stops reading at its cap the client's writes block, and its
// read loop must go on delivering responses meanwhile: if it waited
// for the write, the server's writes would block in turn and neither
// side would move until the server's 30-s write deadline. Such a stall
// is permanent, so the test fails when no response arrives for 10 s,
// not on a budget for the whole run, which a slow run can exhaust
// without stalling.
func TestClientReadsWhileWriteBlocked(t *testing.T) {
	const requests, n = 4 * maxConnInflight, 1 << 14
	_, addr := newTestServer(t, Config{})
	c, err := Dial(addr, "pipeline")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	req := engine.Request{Op: engine.OpRank, List: list.RandomList(n, 17)}
	chs := make(chan (<-chan *Response), requests)
	var submitErr error // read once chs is closed
	go func() {
		defer close(chs)
		for i := 0; i < requests; i++ {
			ch, err := c.Submit(req)
			if err != nil {
				submitErr = fmt.Errorf("Submit %d: %w", i, err)
				return
			}
			chs <- ch
		}
	}()
	const progress = 10 * time.Second
	got := 0
	for ch := range chs {
		select {
		case r, ok := <-ch:
			if !ok || r.Status != StatusOK || len(r.Result.Ranks) != n {
				t.Fatalf("response %d: %+v", got, r)
			}
			got++
		case <-time.After(progress):
			t.Fatalf("no response for %v: stalled after %d of %d responses", progress, got, requests)
		}
	}
	if submitErr != nil {
		t.Fatal(submitErr)
	}
}

// TestCancelWhileBatched parks both engines so an item waits in a
// pending group (huge batch, long wait) and cancels its context. The
// caller is answered, with the context's error, when the timer flush
// drops the item without running it.
func TestCancelWhileBatched(t *testing.T) {
	pool, park := newParkedPool(2)
	s, _ := newTestServer(t, Config{Pool: pool, BatchSize: 64, MaxWait: 200 * time.Millisecond})
	parkers := parkEngines(t, s, park)
	l := &list.List{Next: []int{1, -1}, Head: 0}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		st, err := doRequest(ctx, s, "t", engine.Request{Op: engine.OpRank, List: l})
		if st != StatusInternal && st != StatusDeadline {
			err = fmt.Errorf("status %s, err %v", statusName(st), err)
		} else if !errors.Is(err, context.Canceled) {
			err = fmt.Errorf("err = %v, want context.Canceled", err)
		} else {
			err = nil
		}
		done <- err
	}()
	waitFor(t, "the item to reach the pending group", func() bool { return s.bat.queued.Load() == 1 })
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("caller not answered after cancel")
	}
	park.unpark(2)
	awaitParkers(t, parkers, 2)
	st := s.pool.Stats()
	if ran := st.Requests - 2; ran != 0 {
		t.Errorf("cancelled item ran: pool served %d requests beyond the 2 parked", ran)
	}
}

// TestDrainCompletesInflight parks the only engine, so several requests
// wait in a pending group that can only flush on drain (huge batch,
// huge wait), then shuts the server down: every caller must get its
// served result back before Shutdown returns, and post-drain requests
// must be refused.
func TestDrainCompletesInflight(t *testing.T) {
	base := runtime.NumGoroutine()
	pool, park := newParkedPool(1)
	s, err := New(Config{Pool: pool, BatchSize: 64, MaxWait: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.ServeBinary(ln)
	parkers := parkEngines(t, s, park)

	c, err := Dial(ln.Addr().String(), "drain")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	l := list.RandomList(200, 3)
	const inflight = 5
	chans := make([]<-chan *Response, inflight)
	for i := range chans {
		ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: l})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	// Wait for all items to reach the batcher's pending group.
	waitFor(t, "the pending group to fill", func() bool { return s.bat.queued.Load() == inflight })

	ctx, cancelT := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelT()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(ctx) }()
	// The drain flush happens before the collector exits; only then may
	// the engine run again, so the drained group cannot flush as idle.
	<-s.bat.exited
	park.unpark(1)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	awaitParkers(t, parkers, 1)
	for i, ch := range chans {
		select {
		case r, ok := <-ch:
			if !ok {
				t.Fatalf("request %d: connection died before response", i)
			}
			if r.Status != StatusOK {
				t.Errorf("request %d: status %s (%s)", i, statusName(r.Status), r.Message)
			}
			if r.Batched != inflight {
				t.Errorf("request %d: batched = %d, want %d (drain flush)", i, r.Batched, inflight)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d: no response after drain", i)
		}
	}
	var sb strings.Builder
	s.Registry().WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `parlistd_batch_flush_total{cause="drain"} 1`) {
		t.Errorf("drain flush not recorded:\n%s", sb.String())
	}
	if _, err := Dial(ln.Addr().String(), "late"); err == nil {
		t.Errorf("listener still accepting after Shutdown")
	}
	c.Close()
	waitGoroutines(t, base)
}

// TestMetricsFamilies drives a little traffic and asserts every
// documented parlistd_* family is exported.
func TestMetricsFamilies(t *testing.T) {
	s, addr := newTestServer(t, Config{BatchSize: 2, MaxWait: time.Millisecond, RatePerSec: 1000, Burst: 1000})
	c, err := Dial(addr, "metrics")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	l := &list.List{Next: []int{1, -1}, Head: 0}
	if _, err := c.Do(context.Background(), engine.Request{Op: engine.OpRank, List: l}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if _, err := c.Do(context.Background(), engine.Request{Op: engine.Op(99), List: l}); err == nil {
		t.Fatalf("unknown op served")
	}
	want := []string{
		"parlistd_requests_total",
		"parlistd_failures_total",
		"parlistd_batch_size",
		"parlistd_batch_wait_ns",
		"parlistd_service_ns",
		"parlistd_respond_ns",
		"parlistd_inflight",
		"parlistd_batch_flush_total",
	}
	fams := s.Registry().Families()
	have := make(map[string]bool, len(fams))
	for _, f := range fams {
		have[f] = true
	}
	for _, f := range want {
		if !have[f] {
			t.Errorf("family %s not exported (have %v)", f, fams)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, f := range want {
		if !strings.Contains(string(raw), f) {
			t.Errorf("/metrics missing %s", f)
		}
	}
	hc, err := http.Get(ts.URL + "/healthz")
	if err != nil || hc.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %v / %v", err, hc)
	}
	if hc != nil {
		hc.Body.Close()
	}
}

// TestServerGoroutineHygiene opens and closes a full server + client
// round trip and checks nothing leaks.
func TestServerGoroutineHygiene(t *testing.T) {
	base := runtime.NumGoroutine()
	pool := engine.NewPool(engine.PoolConfig{
		Engines: 2, QueueDepth: 16, Engine: engine.Config{Processors: 4}})
	s, err := New(Config{Pool: pool, BatchSize: 2, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.ServeBinary(ln)
	c, err := Dial(ln.Addr().String(), "")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l := list.RandomList(100, 1)
	for i := 0; i < 4; i++ {
		if _, err := c.Do(context.Background(), engine.Request{Op: engine.OpMatching, List: l}); err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitGoroutines(t, base)
}
