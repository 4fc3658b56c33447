package ledger

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/retry"
)

// LatencyBoundsMicros are the fixed buckets of the batcher's queue/flush
// latency histograms, in microseconds: sub-millisecond enqueue-to-commit
// up to multi-second stalls on a struggling disk.
var LatencyBoundsMicros = []int64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 2500000, 5000000}

// A failed flush is retried after retry.Delay with these bounds.
const (
	flushRetryBase = 25 * time.Millisecond
	flushRetryMax  = 2 * time.Second
)

// Batcher group-commits ledger appends. One flusher goroutine commits
// everything pending as one Merkle batch as soon as the ledger is idle;
// items added during that batch's fsync share the next one. A lone item
// is committed at once, and under load the batch grows with the arrival
// rate, so no timer or size trigger is needed. A failed flush keeps its
// items queued and retries after a backoff. The obs layer carries per-item
// queue latency, per-flush commit latency and a flush-error counter, so a
// degrading disk is visible long before Close reports it.
type Batcher struct {
	ledger   *Ledger
	scope    *obs.Scope
	faults   *faults.OpInjector
	onCommit func(*Batch)

	wake     chan struct{} // 1-buffered: something was added since the flusher last looked
	stop     chan struct{} // closed by Close
	done     chan struct{} // closed when the flusher exits
	closeErr error         // the final flush attempt's error, read after done

	mu      sync.Mutex
	pending []queued
	closed  bool

	metrics batcherMetrics
}

// batcherMetrics are the batcher's instruments, resolved eagerly at
// NewBatcher so every series exists in the owning scope's registry — and
// hence in /debug/vars and /metrics — from process start, not first flush
// (zero-valued gauges and empty histograms are data: "the queue has been
// empty all along"). Nil scope → all-nil, no-op instruments.
type batcherMetrics struct {
	queueDepth  *obs.Gauge
	queueLat    *obs.Histogram
	flushLat    *obs.Histogram
	flushErrors *obs.Counter
	batches     *obs.Counter
	items       *obs.Counter
}

func newBatcherMetrics(s *obs.Scope) batcherMetrics {
	return batcherMetrics{
		queueDepth:  s.Gauge("ledger_queue_depth"),
		queueLat:    s.Histogram("ledger_queue_latency_us", LatencyBoundsMicros),
		flushLat:    s.Histogram("ledger_flush_latency_us", LatencyBoundsMicros),
		flushErrors: s.Counter("ledger_flush_errors"),
		batches:     s.Counter("ledger_batches"),
		items:       s.Counter("ledger_items"),
	}
}

// queued is one item plus its enqueue instant (for the queue-latency
// histogram).
type queued struct {
	item Item
	enq  time.Time
}

// BatcherOptions configures a Batcher.
type BatcherOptions struct {
	// OnCommit, when non-nil, observes every successfully committed batch
	// (the server uses it to stamp jobs with their ledger position). It
	// runs on the flusher goroutine, off the batcher lock and in seq
	// order; the next batch is not flushed until it returns.
	OnCommit func(*Batch)
	// Scope receives the batcher's metrics and events.
	Scope *obs.Scope
	// Faults, when non-nil, is consulted as operation "ledger.flush" before
	// every flush — the injection point for testing retry behaviour.
	Faults *faults.OpInjector
}

// NewBatcher starts a batcher and its flusher goroutine over l. Close
// stops it.
func NewBatcher(l *Ledger, opts BatcherOptions) *Batcher {
	b := &Batcher{
		ledger:   l,
		scope:    opts.Scope,
		faults:   opts.Faults,
		onCommit: opts.OnCommit,
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		metrics:  newBatcherMetrics(opts.Scope),
	}
	go b.run()
	return b
}

// Add enqueues one item and wakes the flusher. It never flushes and never
// blocks on the disk. Items added after Close are rejected.
func (b *Batcher) Add(item Item) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("ledger: batcher closed")
	}
	b.pending = append(b.pending, queued{item: item, enq: time.Now()})
	b.metrics.queueDepth.Set(int64(len(b.pending)))
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	return nil
}

// run is the flusher. Woken by Add, it commits batches until nothing is
// pending, backing off between failed attempts; woken by Close, it makes
// one final attempt and exits.
func (b *Batcher) run() {
	defer close(b.done)
	rng := rand.New(rand.NewSource(1)) // fixed: reproducible backoff jitter
	for {
		select {
		case <-b.wake:
		case <-b.stop:
			b.closeErr = b.drain()
			return
		}
		for failures := 0; ; {
			more, err := b.flush()
			if err == nil {
				if !more {
					break
				}
				failures = 0
				continue
			}
			failures++
			t := time.NewTimer(retry.Delay(failures, flushRetryBase, flushRetryMax, rng, 0))
			select {
			case <-t.C:
			case <-b.stop:
				t.Stop()
				b.closeErr = b.drain()
				return
			}
		}
	}
}

// drain is Close's final attempt: it commits what is pending and returns
// the first flush error.
func (b *Batcher) drain() error {
	for {
		more, err := b.flush()
		if err != nil || !more {
			return err
		}
	}
}

// flush commits up to maxBatchItems pending items as one batch (the cap
// keeps every batch decodable) and reports whether items remain pending.
// On failure the items stay queued at the head of the queue.
func (b *Batcher) flush() (more bool, err error) {
	b.mu.Lock()
	taken := b.pending[:min(len(b.pending), maxBatchItems)]
	b.mu.Unlock()
	if len(taken) == 0 {
		return false, nil
	}
	// Add only appends, so taken stays valid without the lock: the
	// flusher is the only goroutine that removes items.
	items := make([]Item, len(taken))
	for i, q := range taken {
		items[i] = q.item
	}
	start := time.Now()
	var batch *Batch
	err = b.faults.Hit("ledger.flush")
	if err == nil {
		batch, err = b.ledger.Append(items)
	}
	if err != nil {
		b.metrics.flushErrors.Add(1)
		b.scope.Event("ledger_flush_error",
			slog.Int("items", len(items)),
			slog.String("err", err.Error()))
		return true, err
	}
	now := time.Now()
	for _, q := range taken {
		b.metrics.queueLat.Observe(now.Sub(q.enq).Microseconds())
	}
	b.metrics.flushLat.Observe(now.Sub(start).Microseconds())
	b.metrics.batches.Add(1)
	b.metrics.items.Add(int64(len(items)))
	b.mu.Lock()
	b.pending = append(b.pending[:0], b.pending[len(taken):]...)
	more = len(b.pending) > 0
	b.metrics.queueDepth.Set(int64(len(b.pending)))
	b.mu.Unlock()
	b.scope.Event("ledger_batch_committed",
		slog.Uint64("seq", batch.Seq),
		slog.Int("items", len(batch.Items)),
		slog.String("root", batch.Root.String()))
	if b.onCommit != nil {
		b.onCommit(batch)
	}
	return more, nil
}

// Close rejects further Adds, makes one final attempt to commit what is
// pending, waits for the flusher to exit and returns that attempt's error
// (retrying is the caller's concern at this point).
func (b *Batcher) Close() error {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.stop)
	}
	b.mu.Unlock()
	<-b.done
	return b.closeErr
}
