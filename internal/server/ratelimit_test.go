package server

import (
	"fmt"
	"testing"
)

// TestRateLimiterDropsRefilledBuckets: at a rate that refills every
// bucket at once, 2,000 tenants that each spend one token leave far
// fewer than 2,000 buckets behind — a full bucket admits as a missing
// one does, so the sweep drops it.
func TestRateLimiterDropsRefilledBuckets(t *testing.T) {
	rl := newRateLimiter(1e9, 2)
	for i := 0; i < 2000; i++ {
		if !rl.allow(fmt.Sprintf("tenant-%d", i)) {
			t.Fatalf("tenant %d refused its first request", i)
		}
	}
	if n := len(rl.buckets); n >= 200 {
		t.Errorf("%d buckets after 2000 refilled tenants, want far fewer", n)
	}
}

// TestRateLimiterKeepsSpentBuckets: at a rate that never refills, a
// tenant that spent its burst is still refused after 2,000 other
// tenants came and went — a sweep never drops a partly spent bucket.
func TestRateLimiterKeepsSpentBuckets(t *testing.T) {
	rl := newRateLimiter(1e-9, 3)
	for i := 0; i < 3; i++ {
		if !rl.allow("hog") {
			t.Fatalf("burst request %d refused", i)
		}
	}
	for i := 0; i < 2000; i++ {
		rl.allow(fmt.Sprintf("tenant-%d", i))
	}
	if rl.allow("hog") {
		t.Error("spent bucket admitted a fourth request after a sweep")
	}
}
