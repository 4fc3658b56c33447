package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ownedSlices lists the slice ids a poll answer leases, ascending.
func ownedSlices(resp pollResponse) []int {
	ids := make([]int, 0, len(resp.Slices))
	for _, ps := range resp.Slices {
		ids = append(ids, ps.Slice)
	}
	slices.Sort(ids)
	return ids
}

// TestGrantGraceSpreadsFirstSlices drives grants at chosen instants. A
// worker that already holds a slice must not take a never-owned one within
// a beat of the first poll, so a peer whose first poll lands late still
// gets its own; a lone worker takes every slice once the beat has passed;
// and a revoked slice is held back from slice holders for a beat after
// the revocation, but not from a worker that holds none.
func TestGrantGraceSpreadsFirstSlices(t *testing.T) {
	t0 := time.Now()
	poll := func(c *Coordinator, w string, at time.Duration) []int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return ownedSlices(c.pollLocked(w, t0.Add(at)))
	}
	want := func(what string, got []int, want ...int) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: owns %v, want %v", what, got, want)
		}
	}

	two := newTestRun(t, 3, 2, 4, 1000).coord
	beat := two.beat()
	want("fast first poll", poll(two, "fast", 0), 0)
	want("fast repoll inside the grace", poll(two, "fast", beat/2), 0)
	want("late peer's first poll", poll(two, "peer", beat-time.Millisecond), 1)
	want("fast after the grace", poll(two, "fast", 2*beat), 0)

	solo := newTestRun(t, 3, 2, 4, 1000).coord
	want("lone first poll", poll(solo, "solo", 0), 0)
	want("lone repoll inside the grace", poll(solo, "solo", beat-time.Nanosecond), 0)
	want("lone repoll at the grace", poll(solo, "solo", beat), 0, 1)

	rv := newTestRun(t, 3, 2, 4, 1000).coord
	lease := rv.lease()
	want("a", poll(rv, "a", 0), 0)
	want("b", poll(rv, "b", 0), 1)
	// a's poll past b's lease revokes slice 1, but a already holds one.
	revoked := lease + time.Millisecond
	want("a revoking b", poll(rv, "a", revoked), 0)
	want("a inside the grace", poll(rv, "a", revoked+beat/2), 0)
	want("newcomer holding none", poll(rv, "c", revoked+beat/2), 1)
	if h := rv.ShardHealth()[1]; h.Reassigns != 1 {
		t.Fatalf("regrant of a revoked slice counted %d reassigns, want 1", h.Reassigns)
	}
}

// TestParkedPollWakesOnBarrierPost: a poll with nothing to do parks at the
// coordinator, and the post that gives it work — the peer's mark closing
// the level — answers it at once, not at the beat.
func TestParkedPollWakesOnBarrierPost(t *testing.T) {
	tr := newTestRun(t, 3, 2, 4, 10000) // a 2 s beat
	ctx := context.Background()
	a, b := newClient(tr.srv.URL, "a", 1), newClient(tr.srv.URL, "b", 2)
	ra, err := a.poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Slices) != 1 || len(rb.Slices) != 1 {
		t.Fatalf("first polls leased %v and %v, want one slice each", ownedSlices(ra), ownedSlices(rb))
	}
	if err := a.postExpanded(ctx, ra.Slices[0].Slice, 0, levelMark{Steps: 1, Fresh: 1}); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		resp pollResponse
		err  error
		at   time.Time
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := a.poll(ctx)
		got <- answer{resp, err, time.Now()}
	}()
	select {
	case r := <-got:
		t.Fatalf("poll with nothing to do answered at once: %+v (%v)", r.resp, r.err)
	case <-time.After(100 * time.Millisecond):
	}
	posted := time.Now()
	if err := b.postExpanded(ctx, rb.Slices[0].Slice, 0, levelMark{Steps: 1}); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if lag := r.at.Sub(posted); lag > 100*time.Millisecond {
		t.Fatalf("parked poll answered %v after the post that gave it work", lag)
	}
	if r.resp.Level != 1 || !r.resp.hasWork() {
		t.Fatalf("woken poll answered %+v, want level 1 work", r.resp)
	}
}

// TestParkedWorkerKeepsLease: a worker that does nothing but poll for
// three leases, while its peer only heartbeats, keeps its slice under the
// same epoch — every wake re-stamps its heartbeat — and its polls park a
// beat each instead of spinning.
func TestParkedWorkerKeepsLease(t *testing.T) {
	tr := newTestRun(t, 3, 2, 4, 300)
	ctx := context.Background()
	a, b := newClient(tr.srv.URL, "a", 1), newClient(tr.srv.URL, "b", 2)
	ra, err := a.poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.poll(ctx); err != nil {
		t.Fatal(err)
	}
	mine := ra.Slices[0]
	if err := a.postExpanded(ctx, mine.Slice, 0, levelMark{Steps: 1}); err != nil {
		t.Fatal(err)
	}

	// b is mid-expansion: it only heartbeats, and each heartbeat expires
	// any worker whose lease lapsed.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if err := b.heartbeat(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	lease := tr.coord.lease()
	polls := 0
	for end := time.Now().Add(3 * lease); time.Now().Before(end); polls++ {
		resp, err := a.poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Slices) != 1 || resp.Slices[0].Slice != mine.Slice || resp.Slices[0].Epoch != mine.Epoch || !resp.Slices[0].Expanded {
			t.Fatalf("after %d parked polls a leases %+v, want slice %d epoch %d still expanded", polls, resp.Slices, mine.Slice, mine.Epoch)
		}
	}
	if limit := int(3*lease/tr.coord.beat()) + 3; polls > limit {
		t.Fatalf("%d polls in three leases, want at most %d: polls are not parking", polls, limit)
	}
	for _, h := range tr.coord.ShardHealth() {
		if h.Reassigns != 0 {
			t.Fatalf("slice %d reassigned %d times while its owner was parked", h.Slice, h.Reassigns)
		}
	}
}

// TestCancelledPollReturnsPromptly: a parked poll whose context ends —
// directly, or because the HTTP client went away — returns at once, not at
// the beat, and leaves no goroutine behind.
func TestCancelledPollReturnsPromptly(t *testing.T) {
	tr := newTestRun(t, 3, 2, 4, 30000) // a 6 s beat
	c := tr.coord
	c.poll(context.Background(), "peer")
	resp := c.poll(context.Background(), "w")
	if len(resp.Slices) != 1 {
		t.Fatalf("first poll leased %v", ownedSlices(resp))
	}
	if err := c.expanded("w", resp.Slices[0].Slice, 0, levelMark{Steps: 1}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		c.poll(ctx, "w")
		cancel()
		if took := time.Since(start); took > time.Second {
			t.Fatalf("cancelled poll took %v", took)
		}
	}

	var inflight atomic.Int32
	handler := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer inflight.Add(-1)
		handler.ServeHTTP(w, r)
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := newClient(srv.URL, "w", 1).poll(ctx)
	cancel()
	if err == nil {
		t.Fatal("poll with nothing to do answered inside 50ms")
	}
	for deadline := time.Now().Add(time.Second); inflight.Load() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("handler still parked a second after its client went away")
		}
	}
	srv.Close()

	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled polls, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestRunCompletionWakesParkedPolls: the post that finishes the run
// answers every parked poll with Done — the worker whose slice is already
// through the barrier and the one holding no slice at all.
func TestRunCompletionWakesParkedPolls(t *testing.T) {
	tr := newTestRun(t, 3, 2, 1, 10000) // depth 1: closing level 1 ends the run
	c := tr.coord
	ctx := context.Background()
	sa := c.poll(ctx, "a").Slices[0].Slice
	sb := c.poll(ctx, "b").Slices[0].Slice
	for _, post := range []func() error{
		func() error { return c.expanded("a", sa, 0, levelMark{Steps: 1, Fresh: 1}) },
		func() error { return c.expanded("b", sb, 0, levelMark{Steps: 1}) },
		func() error { return c.expanded("a", sa, 1, levelMark{Fresh: 1}) },
	} {
		if err := post(); err != nil {
			t.Fatal(err)
		}
	}
	answers := make(chan pollResponse, 2)
	for _, w := range []string{"a", "idle"} {
		go func() { answers <- c.poll(ctx, w) }()
	}
	select {
	case r := <-answers:
		t.Fatalf("poll with nothing to do answered at once: %+v", r)
	case <-time.After(100 * time.Millisecond):
	}
	posted := time.Now()
	if err := c.expanded("b", sb, 1, levelMark{}); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		r := <-answers
		if !r.Done {
			t.Fatalf("woken poll answered %+v, want done", r)
		}
	}
	if lag := time.Since(posted); lag > 100*time.Millisecond {
		t.Fatalf("parked polls answered %v after the run finished", lag)
	}
}
