package checkpoint

import (
	"log/slog"
	"time"

	"repro/internal/obs"
)

// Coordinator decides when to persist and assembles each snapshot from its
// sources: the valency oracle registers a memo exporter and the adversary
// engine tags the current proof stage. Saves happen only at Tick, which
// runs between valency queries and at stage changes, never inside a
// search, so a snapshot is the memo plus the stage.
//
// All methods are driven from the single goroutine that runs the
// construction (the oracle and engine are single-threaded between
// exploration fan-outs), so the coordinator takes no locks; saves happen
// synchronously on that goroutine, which is what makes reading the live
// memo maps safe.
//
// A nil *Coordinator is the disabled state: every method is nil-receiver
// safe and does nothing, mirroring the obs.Scope convention.
type Coordinator struct {
	store *Store
	every time.Duration
	scope *obs.Scope
	meta  Meta

	memoSource func() *MemoData
	last       time.Time
	writes     int
	bytes      int64
	fails      int
	lastErr    error

	// AfterSave, when non-nil, observes every successfully persisted
	// snapshot (tests use it to kill a run deterministically after a
	// known save).
	AfterSave func(*Snapshot)

	// saveUs is the save-latency histogram, resolved once at construction
	// (nil and no-op when the scope is).
	saveUs *obs.Histogram

	now func() time.Time
}

// SaveLatencyBoundsMicros are the fixed buckets of the checkpoint_save_us
// histogram: an atomic snapshot write is dominated by fsyncs, so the range
// runs from sub-millisecond page-cache writes to multi-second stalls that
// would drag on the proof.
var SaveLatencyBoundsMicros = []int64{500, 1000, 5000, 10000, 50000, 100000, 500000, 1000000, 5000000}

// NewCoordinator returns a coordinator saving to store at most once per
// `every` (every <= 0 means: on every opportunity, which only tests want).
// meta identifies the run; its Seq field is the sequence to continue from
// (the store's NewestSeq for a fresh run, the loaded snapshot's Seq on
// resume — adversary.Open sets both).
func NewCoordinator(store *Store, every time.Duration, meta Meta, scope *obs.Scope) *Coordinator {
	return &Coordinator{
		store:  store,
		every:  every,
		scope:  scope,
		meta:   meta,
		saveUs: scope.Histogram("checkpoint_save_us", SaveLatencyBoundsMicros),
		now:    time.Now,
	}
}

// SetStage records the adversary proof stage stored in subsequent
// snapshots. Safe on nil.
func (c *Coordinator) SetStage(stage string) {
	if c == nil {
		return
	}
	c.meta.Stage = stage
}

// SetMemoSource registers the function that exports the valency memo at
// save time. Safe on nil.
func (c *Coordinator) SetMemoSource(fn func() *MemoData) {
	if c == nil {
		return
	}
	c.memoSource = fn
}

// Tick offers a save opportunity between oracle queries: if the configured
// interval has elapsed since the last save, a snapshot (memo + stage) is
// persisted. Safe on nil.
func (c *Coordinator) Tick() {
	if c == nil {
		return
	}
	if !c.last.IsZero() && c.now().Sub(c.last) < c.every {
		return
	}
	c.save()
}

// Flush persists a snapshot immediately, regardless of the interval, and
// returns the last save error (nil on success). Safe on nil.
func (c *Coordinator) Flush() error {
	if c == nil {
		return nil
	}
	c.save()
	return c.lastErr
}

// save persists one snapshot. Persistence failures do not stop the proof:
// the error is counted, kept for Err, and the next tick retries — an
// hours-long construction should survive a transiently full disk.
func (c *Coordinator) save() {
	c.last = c.now()
	snap := &Snapshot{Meta: c.meta}
	snap.Meta.Seq++
	snap.Meta.WrittenUnixNano = c.now().UnixNano()
	if c.memoSource != nil {
		snap.Memo = c.memoSource()
	}
	saveStart := time.Now()
	n, err := c.store.Save(snap)
	c.saveUs.Observe(time.Since(saveStart).Microseconds())
	if err != nil {
		// Persistence degradation is silent by design (the proof keeps
		// running), so it must be loud in the obs layer: a monotonic error
		// counter to alert on, a consecutive-failure gauge that a healthy
		// save resets (sustained non-zero = the disk is gone, not a blip),
		// and a JSONL event per failure with the cause.
		c.lastErr = err
		c.fails++
		c.scope.Counter("checkpoint_errors").Add(1)
		c.scope.Gauge("checkpoint_consecutive_errors").Set(int64(c.fails))
		c.scope.Event("checkpoint_error",
			slog.Uint64("seq", snap.Meta.Seq),
			slog.String("stage", snap.Meta.Stage),
			slog.Int("consecutive", c.fails),
			slog.String("err", err.Error()))
		return
	}
	c.lastErr = nil
	c.fails = 0
	c.scope.Gauge("checkpoint_consecutive_errors").Set(0)
	c.meta.Seq = snap.Meta.Seq
	c.writes++
	c.bytes += n
	c.scope.CheckpointSaved(n)
	c.scope.Event("checkpoint_write",
		slog.Uint64("seq", snap.Meta.Seq),
		slog.String("stage", snap.Meta.Stage),
		slog.Int64("bytes", n),
	)
	if c.AfterSave != nil {
		c.AfterSave(snap)
	}
}

// Stats reports the coordinator's work for end-of-run reporting. Safe on
// nil (zeroes).
func (c *Coordinator) Stats() (writes int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	return c.writes, c.bytes
}

// Err returns the most recent persistence failure, nil if the last save
// succeeded (or none was attempted). Safe on nil.
func (c *Coordinator) Err() error {
	if c == nil {
		return nil
	}
	return c.lastErr
}
