package load

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestEvenSchedule(t *testing.T) {
	for i, d := range Even(5, 1000) {
		if want := time.Duration(i) * time.Millisecond; d != want {
			t.Errorf("Even(5, 1000)[%d] = %v, want %v", i, d, want)
		}
	}
	for i, d := range Even(5, 0) {
		if d != 0 {
			t.Errorf("Even(5, 0)[%d] = %v, want every request due at once", i, d)
		}
	}
}

// TestOpenNeverSendsEarly stamps each send from the stub's side and
// checks it against the request's due time, start + due[i].
func TestOpenNeverSendsEarly(t *testing.T) {
	due := Even(40, 4000)
	sent := make([]time.Time, len(due))
	recs := Open(due, func(i int) func() error {
		sent[i] = time.Now()
		return func() error { return nil }
	})
	if len(recs) != len(due) {
		t.Fatalf("%d records for %d requests", len(recs), len(due))
	}
	start := recs[0].Due
	for i, r := range recs {
		if got := r.Due.Sub(start); got != due[i] {
			t.Errorf("request %d due at start+%v, want start+%v", i, got, due[i])
		}
		if sent[i].Before(r.Due) || r.Sent.Before(r.Due) {
			t.Errorf("request %d sent %v before its due time", i, r.Due.Sub(sent[i]))
		}
		if r.Lateness() < 0 || r.Done.Before(r.Sent) {
			t.Errorf("request %d: lateness %v, done %v after send", i, r.Lateness(), r.Done.Sub(r.Sent))
		}
	}
}

// TestLatencyRunsFromDue has every request due at once and a stub
// whose send takes d inline on the pacer, so request i goes out at
// least i·d late. Its latency must count that wait: at least (i+1)·d,
// where a clock started at the send would read about d.
func TestLatencyRunsFromDue(t *testing.T) {
	const n, d = 6, 2 * time.Millisecond
	recs := Open(Even(n, 0), func(int) func() error {
		time.Sleep(d)
		return func() error { return nil }
	})
	for i, r := range recs {
		if want := time.Duration(i) * d; r.Lateness() < want {
			t.Errorf("request %d: lateness %v, want at least %v", i, r.Lateness(), want)
		}
		if want := time.Duration(i+1) * d; r.Latency() < want {
			t.Errorf("request %d: latency %v, want at least %v", i, r.Latency(), want)
		}
	}
	s := Summarize(recs)
	if s.Served != n || s.P50 < time.Duration(n/2)*d || s.P99 < s.P50 || s.LateP50 < time.Duration(n/2-1)*d {
		t.Errorf("served %d, p50 %v, p99 %v, late-p50 %v: want %d served, p50 ≥ %v, late-p50 ≥ %v",
			s.Served, s.P50, s.P99, s.LateP50, n, time.Duration(n/2)*d, time.Duration(n/2-1)*d)
	}
}

// TestOpenDoesNotWaitOnResponses gives every wait a response that only
// arrives once the last request is sent: a pacer that waited on any
// response would never get there.
func TestOpenDoesNotWaitOnResponses(t *testing.T) {
	const n = 16
	allSent := make(chan struct{})
	done := make(chan []Record)
	go func() {
		done <- Open(Even(n, 2000), func(i int) func() error {
			if i == n-1 {
				close(allSent)
			}
			return func() error {
				<-allSent
				return nil
			}
		})
	}()
	select {
	case recs := <-done:
		if s := Summarize(recs); s.Served != n {
			t.Fatalf("served %d of %d", s.Served, n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Open blocked on a response before sending every request")
	}
}

func TestClosedIssuesPerTimesConc(t *testing.T) {
	for _, tc := range []struct{ n, conc, want int }{
		{12, 3, 12}, {10, 3, 9}, {2, 4, 4}, {1, 1, 1},
	} {
		var inflight, peak atomic.Int32
		seen := make([]atomic.Int32, tc.want)
		recs := Closed(tc.n, tc.conc, func(i int) error {
			cur := inflight.Add(1)
			defer inflight.Add(-1)
			for p := peak.Load(); cur > p; p = peak.Load() {
				if peak.CompareAndSwap(p, cur) {
					break
				}
			}
			if i < 0 || i >= tc.want {
				return fmt.Errorf("index %d out of range", i)
			}
			seen[i].Add(1)
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		if s := Summarize(recs); len(recs) != tc.want || s.Served != tc.want || s.Err != nil {
			t.Errorf("Closed(%d, %d): %d records, %d served (%v), want %d", tc.n, tc.conc, len(recs), s.Served, s.Err, tc.want)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Errorf("Closed(%d, %d): index %d issued %d times", tc.n, tc.conc, i, c)
			}
		}
		if p := peak.Load(); p > int32(tc.conc) {
			t.Errorf("Closed(%d, %d): %d requests in flight at once", tc.n, tc.conc, p)
		}
		for i, r := range recs {
			if r.Lateness() != 0 {
				t.Errorf("closed request %d sent %v after it was due", i, r.Lateness())
			}
		}
	}
}

func TestSummarizeShedApartFromFailed(t *testing.T) {
	boom := errors.New("boom")
	now := time.Now()
	errs := []error{nil, fmt.Errorf("%w: queue full", ErrShed), boom, nil, fmt.Errorf("wrapped: %w", ErrShed), errors.New("second")}
	recs := make([]Record, len(errs))
	for i, err := range errs {
		recs[i] = Record{Due: now, Sent: now, Done: now.Add(time.Millisecond), Err: err}
	}
	s := Summarize(recs)
	if s.Served != 2 || s.Shed != 2 || s.Failed != 2 {
		t.Errorf("served/shed/failed = %d/%d/%d, want 2/2/2", s.Served, s.Shed, s.Failed)
	}
	if !errors.Is(s.Err, boom) {
		t.Errorf("first failure %v, want %v", s.Err, boom)
	}
	if s.Rate < 1999 || s.Rate > 2001 {
		t.Errorf("rate %.1f/s, want 2 served in 1 ms", s.Rate)
	}
}
