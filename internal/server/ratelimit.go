package server

import (
	"sort"
	"sync"
	"time"
)

// rateLimiter is a per-tenant token bucket: each tenant refills at
// rate tokens/second up to burst, and every admitted request spends
// one token. A nil limiter admits everything — Config.RatePerSec == 0
// means unlimited.
//
// Tenant names come from clients, so the map is swept: a bucket that
// has refilled to burst admits exactly as a missing one does (new
// tenants start full), so it is dropped, and only partly spent
// buckets hold memory.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*bucket
	// sweepAt is the map size that triggers the next sweep: twice what
	// the last sweep left, so sweeping costs O(1) amortized per call.
	sweepAt int
}

// minSweep is the smallest map size that triggers a sweep.
const minSweep = 64

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate, burst float64) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rate: rate, burst: burst, buckets: make(map[string]*bucket), sweepAt: minSweep}
}

// tenantFill is one tenant's bucket state in a limiter snapshot.
type tenantFill struct {
	tenant string
	tokens float64
}

// snapshot reports the limiter's configuration and the current
// (refill-adjusted) token count of every tenant whose bucket is partly
// spent, for /statusz. A nil limiter reports rate 0 — unlimited.
func (rl *rateLimiter) snapshot() (rate, burst float64, fills []tenantFill) {
	if rl == nil {
		return 0, 0, nil
	}
	now := time.Now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	for t, b := range rl.buckets {
		if tok := rl.refilled(b, now); tok < rl.burst {
			fills = append(fills, tenantFill{tenant: t, tokens: tok})
		}
	}
	sort.Slice(fills, func(i, j int) bool { return fills[i].tenant < fills[j].tenant })
	return rl.rate, rl.burst, fills
}

// allow spends one token from tenant's bucket, reporting whether one
// was available. New tenants start with a full bucket.
func (rl *rateLimiter) allow(tenant string) bool {
	if rl == nil {
		return true
	}
	now := time.Now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.buckets[tenant]
	if b == nil {
		if len(rl.buckets) >= rl.sweepAt {
			rl.sweep(now)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[tenant] = b
	} else {
		b.tokens = rl.refilled(b, now)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refilled returns b's token count at now, capped at burst.
func (rl *rateLimiter) refilled(b *bucket, now time.Time) float64 {
	return min(b.tokens+now.Sub(b.last).Seconds()*rl.rate, rl.burst)
}

// sweep drops every bucket that has refilled to burst. Caller holds mu.
func (rl *rateLimiter) sweep(now time.Time) {
	for t, b := range rl.buckets {
		if rl.refilled(b, now) >= rl.burst {
			delete(rl.buckets, t)
		}
	}
	rl.sweepAt = max(minSweep, 2*len(rl.buckets))
}
