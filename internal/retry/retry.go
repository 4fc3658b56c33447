// Package retry is the one backoff policy the repository's HTTP retry
// loops share: the dist worker's coordinator client, the spacebound
// server client and the provesrv job supervisor. Each caller keeps its own
// constants, its own seeded rng and its own loop; only the delay shape and
// the context-aware wait live here.
package retry

import (
	"context"
	"math/rand"
	"time"
)

// Delay returns the wait before retry attempt (1-based): base doubled per
// earlier retry, capped at limit, plus up to 25% jitter drawn from rng so a
// fleet retrying one server does not retry in lockstep, and never less
// than floor (a server's Retry-After; 0 when it sent none). rng is not
// safe for concurrent use; the caller serialises access to it.
func Delay(attempt int, base, limit time.Duration, rng *rand.Rand, floor time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	d = min(d, limit)
	return max(d+time.Duration(rng.Int63n(int64(d/4)+1)), floor)
}

// Sleep waits d, or returns the context's error if it ends first.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
