// Package load drives request traffic and measures it by one clock
// rule: a request's latency runs from the time it was due, not from
// the time it was sent, so a late generator or a stall is charged to
// every request it delays, and the generator's own lateness is
// reported beside it. Open sends on a schedule whatever the responses
// do; Closed runs callers that each wait for a reply before their next
// request, so a request is due when its caller is ready. Both return
// one Record per request, and Summarize reads the counts and quantiles
// from them.
package load

import (
	"errors"
	"sync"
	"time"

	"parlist/internal/obs"
)

// ErrShed marks a request the system refused at admission. Callers wrap
// their own refusal in it (fmt.Errorf("%w: %w", load.ErrShed, err)), and
// Summarize counts such requests as shed, apart from failures.
var ErrShed = errors.New("load: shed")

// Record is one request's life on the driver's clock. Err is nil when
// the request was served.
type Record struct {
	Due, Sent, Done time.Time
	Err             error
}

// Latency is the time from the request's due time to its result.
func (r *Record) Latency() time.Duration { return r.Done.Sub(r.Due) }

// Lateness is how late the generator sent the request.
func (r *Record) Lateness() time.Duration { return r.Sent.Sub(r.Due) }

// Even returns n due offsets at a fixed interval of 1/rate seconds.
// Rate 0 makes every request due at once: the flat-out schedule.
func Even(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	if rate > 0 {
		for i := range due {
			due[i] = time.Duration(float64(i) * float64(time.Second) / rate)
		}
	}
	return due
}

// Open runs an open loop: it sends request i at start + due[i] by
// calling submit(i), and returns once every request has its result.
// The pacer sleeps until each due time and never sends early; after a
// late wake it sends the requests already due back to back, so the
// offered rate holds. submit runs inline on the pacer and must not wait
// for the response: it returns the wait for request i's result, which
// runs on its own goroutine. A send that fails returns a wait that
// reports the failure.
func Open(due []time.Duration, submit func(i int) (wait func() error)) []Record {
	recs := make([]Record, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		r := &recs[i]
		r.Due = start.Add(d)
		time.Sleep(time.Until(r.Due))
		r.Sent = time.Now()
		wait := submit(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Err = wait()
			r.Done = time.Now()
		}()
	}
	wg.Wait()
	return recs
}

// Closed runs a closed loop: conc callers each issue max(n/conc, 1)
// requests back to back through do, caller c taking indices
// c·per … c·per+per−1. A request is due, and sent, when its caller is
// ready for it.
func Closed(n, conc int, do func(i int) error) []Record {
	per := max(n/conc, 1)
	recs := make([]Record, per*conc)
	var wg sync.WaitGroup
	for c := range conc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c * per; i < (c+1)*per; i++ {
				r := &recs[i]
				r.Due = time.Now()
				r.Sent = r.Due
				r.Err = do(i)
				r.Done = time.Now()
			}
		}()
	}
	wg.Wait()
	return recs
}

// Summary is what a run of Open or Closed measured. The quantiles are
// read from an obs.Histogram, so they carry its ≤ 1/16 relative error.
type Summary struct {
	Served, Shed, Failed int
	// Err is the first failure in request order, nil when none failed.
	Err error
	// Rate is served requests per second, from the first due time to
	// the last result.
	Rate float64
	// P50 and P99 are the served requests' latency quantiles.
	P50, P99 time.Duration
	// LateP50 is the median lateness over every request sent.
	LateP50 time.Duration
}

// Summarize counts and times a run's records.
func Summarize(recs []Record) Summary {
	var s Summary
	if len(recs) == 0 {
		return s
	}
	lat, late := new(obs.Histogram), new(obs.Histogram)
	first, last := recs[0].Due, recs[0].Done
	for i := range recs {
		r := &recs[i]
		late.Observe(int64(r.Lateness()))
		if r.Due.Before(first) {
			first = r.Due
		}
		if r.Done.After(last) {
			last = r.Done
		}
		switch {
		case r.Err == nil:
			s.Served++
			lat.Observe(int64(r.Latency()))
		case errors.Is(r.Err, ErrShed):
			s.Shed++
		default:
			s.Failed++
			if s.Err == nil {
				s.Err = r.Err
			}
		}
	}
	if d := last.Sub(first); d > 0 {
		s.Rate = float64(s.Served) / d.Seconds()
	}
	var snap obs.HistSnapshot
	lat.Snapshot(&snap)
	s.P50, s.P99 = time.Duration(snap.Quantile(0.50)), time.Duration(snap.Quantile(0.99))
	late.Snapshot(&snap)
	s.LateP50 = time.Duration(snap.Quantile(0.50))
	return s
}
