package dist

import (
	"testing"
	"time"
)

// TestRetryDelayFloorsAtRetryAfter: a Retry-After floors the backoff step
// instead of adding to it, so a 503 + Retry-After: 1 from a recovering
// coordinator costs one second of waiting, not one second plus a backoff.
func TestRetryDelayFloorsAtRetryAfter(t *testing.T) {
	cl := newClient("http://unused", "w", 1)
	within := func(name string, got, lo, hi time.Duration) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s: delay %v outside [%v, %v]", name, got, lo, hi)
		}
	}
	for i := 0; i < 100; i++ {
		within("first retry", cl.retryDelay(1, 0), clientRetryBase, clientRetryBase*5/4)
		within("third retry", cl.retryDelay(3, 0), 4*clientRetryBase, 5*clientRetryBase)
		within("capped retry", cl.retryDelay(clientAttempts, 0), clientRetryMax, clientRetryMax*5/4)
		if got := cl.retryDelay(1, time.Second); got != time.Second {
			t.Fatalf("Retry-After 1s above the backoff: delay %v, want exactly 1s", got)
		}
		within("Retry-After below the backoff", cl.retryDelay(clientAttempts, time.Second), clientRetryMax, clientRetryMax*5/4)
	}
}
