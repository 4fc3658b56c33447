package ledger

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

func openTestLedger(t *testing.T, scope *obs.Scope) *Ledger {
	t.Helper()
	l, err := Open(filepath.Join(t.TempDir(), "ledger.seg"), scope)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// nextBatch waits for the next batch an OnCommit sent on commits, so tests
// wait for commits instead of sleeping.
func nextBatch(t *testing.T, commits <-chan *Batch) *Batch {
	t.Helper()
	select {
	case b := <-commits:
		return b
	case <-time.After(10 * time.Second):
		t.Fatal("no batch committed")
		return nil
	}
}

// TestBatcherLoneAddCommits: a single Add is committed by the flusher on
// its own — no Flush call, no timer, no company.
func TestBatcherLoneAddCommits(t *testing.T) {
	scope := obs.NewScope(nil)
	l := openTestLedger(t, scope)
	commits := make(chan *Batch, 1)
	b := NewBatcher(l, BatcherOptions{Scope: scope, OnCommit: func(b *Batch) { commits <- b }})
	defer b.Close()
	if err := b.Add(Item{JobID: "j-1", Witness: wh(1)}); err != nil {
		t.Fatal(err)
	}
	batch := nextBatch(t, commits)
	if batch.Seq != 1 || len(batch.Items) != 1 || batch.Items[0].JobID != "j-1" {
		t.Fatalf("committed %+v", batch)
	}
	if !l.Contains("j-1") {
		t.Fatal("OnCommit ran before the ledger held the item")
	}
	if scope.Counter("ledger_batches").Value() != 1 || scope.Counter("ledger_items").Value() != 1 {
		t.Fatal("batch/item counters wrong")
	}
	if scope.Histogram("ledger_queue_latency_us", LatencyBoundsMicros).Count() != 1 {
		t.Fatal("queue latency histogram missing the item")
	}
	if scope.Histogram("ledger_flush_latency_us", LatencyBoundsMicros).Count() != 1 {
		t.Fatal("flush latency histogram missing the flush")
	}
	if got := scope.Gauge("ledger_queue_depth").Value(); got != 0 {
		t.Fatalf("queue depth after the commit = %d, want 0", got)
	}
}

// TestBatcherGroupCommit: items added while the flusher is busy share the
// next batch. OnCommit of batch 1 holds the flusher until two more items
// are queued; they must commit together as batch 2.
func TestBatcherGroupCommit(t *testing.T) {
	l := openTestLedger(t, nil)
	commits := make(chan *Batch, 2)
	release := make(chan struct{})
	b := NewBatcher(l, BatcherOptions{OnCommit: func(batch *Batch) {
		commits <- batch
		if batch.Seq == 1 {
			<-release
		}
	}})
	b.Add(Item{JobID: "j-1", Witness: wh(1)})
	if batch := nextBatch(t, commits); len(batch.Items) != 1 {
		t.Fatalf("batch 1 has %d items, want 1", len(batch.Items))
	}
	b.Add(Item{JobID: "j-2", Witness: wh(2)})
	b.Add(Item{JobID: "j-3", Witness: wh(3)})
	close(release)
	batch := nextBatch(t, commits)
	if batch.Seq != 2 || len(batch.Items) != 2 ||
		batch.Items[0].JobID != "j-2" || batch.Items[1].JobID != "j-3" {
		t.Fatalf("batch 2 = seq %d, items %+v; want seq 2 with j-2, j-3", batch.Seq, batch.Items)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n, items := l.Len(); n != 2 || items != 3 {
		t.Fatalf("ledger holds %d batches, %d items; want 2, 3", n, items)
	}
}

// TestBatcherCommitOrder: OnCommit sees every batch exactly once, in seq
// order, however Adds from several goroutines interleave with flushes.
func TestBatcherCommitOrder(t *testing.T) {
	l := openTestLedger(t, nil)
	var seen []*Batch // appended on the flusher goroutine, read after Close
	b := NewBatcher(l, BatcherOptions{OnCommit: func(batch *Batch) { seen = append(seen, batch) }})
	const adders, each = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("j-%d-%d", g, i)
				if err := b.Add(Item{JobID: id, Witness: wh(byte(g*each + i))}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	items := 0
	for i, batch := range seen {
		if batch.Seq != uint64(i+1) {
			t.Fatalf("OnCommit call %d saw seq %d", i, batch.Seq)
		}
		items += len(batch.Items)
	}
	if items != adders*each {
		t.Fatalf("OnCommit saw %d items, want %d", items, adders*each)
	}
	if n, _ := l.Len(); n != len(seen) {
		t.Fatalf("ledger holds %d batches, OnCommit saw %d", n, len(seen))
	}
}

// TestBatcherFlushRetry scripts two flush failures via the faults injector:
// the item must stay queued through the failures and commit on the
// flusher's third try with no Flush call, the error counter carrying the
// two misses.
func TestBatcherFlushRetry(t *testing.T) {
	scope := obs.NewScope(nil)
	l := openTestLedger(t, scope)
	inj := faults.NewOpInjector()
	inj.Fail("ledger.flush", 2, nil)
	commits := make(chan *Batch, 1)
	b := NewBatcher(l, BatcherOptions{Scope: scope, Faults: inj, OnCommit: func(b *Batch) { commits <- b }})
	b.Add(Item{JobID: "j-1", Witness: wh(1)})
	if batch := nextBatch(t, commits); batch.Seq != 1 || len(batch.Items) != 1 {
		t.Fatalf("committed %+v", batch)
	}
	if !l.Contains("j-1") {
		t.Fatal("item lost across failed flushes")
	}
	if got := scope.Counter("ledger_flush_errors").Value(); got != 2 {
		t.Fatalf("ledger_flush_errors = %d, want 2", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := inj.Hits("ledger.flush"); got != 3 {
		t.Fatalf("flush attempts = %d, want 3", got)
	}
}

// TestBatcherCloseRejectsLateAdds: Close drains, later Adds fail.
func TestBatcherCloseRejectsLateAdds(t *testing.T) {
	l := openTestLedger(t, nil)
	b := NewBatcher(l, BatcherOptions{})
	b.Add(Item{JobID: "j-1", Witness: wh(1)})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if !l.Contains("j-1") {
		t.Fatal("Close did not drain the queue")
	}
	if err := b.Add(Item{JobID: "j-2", Witness: wh(2)}); err == nil {
		t.Fatal("Add after Close accepted")
	}
}

// TestBatcherCloseReturnsFlushError: when every flush fails, Close's final
// attempt fails too and Close returns its error; nothing reaches the
// ledger and later Adds are rejected.
func TestBatcherCloseReturnsFlushError(t *testing.T) {
	l := openTestLedger(t, nil)
	inj := faults.NewOpInjector()
	inj.Fail("ledger.flush", 1<<30, nil)
	b := NewBatcher(l, BatcherOptions{Faults: inj})
	b.Add(Item{JobID: "j-1", Witness: wh(1)})
	if err := b.Close(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Close = %v, want the injected flush failure", err)
	}
	if n, _ := l.Len(); n != 0 {
		t.Fatal("failed flush committed something")
	}
	if inj.Hits("ledger.flush") < 1 {
		t.Fatal("Close made no final flush attempt")
	}
	if err := b.Add(Item{JobID: "j-2", Witness: wh(2)}); err == nil {
		t.Fatal("Add after Close accepted")
	}
}

// TestBatcherMetricsEagerlyRegistered pins the flight-recorder contract:
// constructing a Batcher registers its whole metric family up front, so
// /debug/vars and /metrics expose the series (at zero) from process start
// rather than after the first witness flows through.
func TestBatcherMetricsEagerlyRegistered(t *testing.T) {
	scope := obs.NewScope(nil)
	l := openTestLedger(t, scope)
	// Every flush fails, so the item added below stays queued and the
	// depth read after Add cannot race the flusher's commit.
	inj := faults.NewOpInjector()
	inj.Fail("ledger.flush", 1<<30, nil)
	b := NewBatcher(l, BatcherOptions{Scope: scope, Faults: inj})
	defer b.Close()

	snap := scope.Registry().Snapshot()
	for _, name := range []string{
		"ledger_queue_depth",
		"ledger_queue_latency_us",
		"ledger_flush_latency_us",
		"ledger_flush_errors",
		"ledger_batches",
		"ledger_items",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %q not registered before first flush", name)
		}
	}
	if got := scope.Gauge("ledger_queue_depth").Value(); got != 0 {
		t.Fatalf("fresh queue depth = %d", got)
	}
	b.Add(Item{JobID: "j-1", Witness: wh(1)})
	if got := scope.Gauge("ledger_queue_depth").Value(); got != 1 {
		t.Fatalf("queue depth after one Add = %d, want 1", got)
	}
}
