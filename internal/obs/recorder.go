package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is the engine flight recorder: a lock-free bounded ring of
// timestamped scalar snapshots (counters and gauges) taken at a fixed
// minimum interval. Two sources feed it — an optional background goroutine
// (Start) for wall-clock regularity, and level-edge ticks from the
// instrumented engine (Scope.ExploreLevel, Scope.SetPhase) so the
// trajectory lands on the boundaries the engine actually crossed; both
// share one CAS rate limiter, so their combined sample spacing never drops
// below the interval. Readers (/timeseries, benchreport's embedded
// trajectory) walk atomic slot pointers and never block a writer.
//
// A nil *Recorder is the disabled state: every method is nil-receiver
// safe, matching the Scope convention.
type Recorder struct {
	reg      *Registry
	names    []string
	interval time.Duration

	slots  []atomic.Pointer[Sample]
	seq    atomic.Uint64 // total samples ever taken; next slot is seq % len
	lastNs atomic.Int64  // unix nanos of the newest sample (rate limiter)

	now func() time.Time

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// Sample is one ring entry: a wall-clock stamp and the scalar metric
// values at that instant.
type Sample struct {
	UnixMs int64            `json:"unix_ms"`
	Values map[string]int64 `json:"values"`
}

// TimeSeries is the JSON document served at /timeseries and embedded in
// BENCH_explore.json: the ring's samples oldest to newest.
type TimeSeries struct {
	IntervalMs int64    `json:"interval_ms"`
	Samples    []Sample `json:"samples"`
}

// DefaultRecordEvery is the sampling interval used when a command enables
// observability without choosing one.
const DefaultRecordEvery = time.Second

// DefaultRecordSize is the default ring capacity: at the default interval
// it holds the last ~8.5 minutes of engine history in a few hundred KB.
const DefaultRecordSize = 512

// NewRecorder returns a recorder over reg sampling at most every interval
// into a ring of size slots. names selects which counters/gauges each
// sample captures; empty means all scalars in the registry at sample time.
// Zero/negative interval or size fall back to the defaults.
func NewRecorder(reg *Registry, interval time.Duration, size int, names ...string) *Recorder {
	if interval <= 0 {
		interval = DefaultRecordEvery
	}
	if size <= 0 {
		size = DefaultRecordSize
	}
	return &Recorder{
		reg:      reg,
		names:    names,
		interval: interval,
		slots:    make([]atomic.Pointer[Sample], size),
		now:      time.Now,
	}
}

// scalars snapshots the registry's counters and gauges as plain values,
// restricted to names when the recorder was built with a selection.
func (r *Registry) scalars(names []string) map[string]int64 {
	if r == nil {
		return map[string]int64{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	if len(names) > 0 {
		for _, name := range names {
			if c, ok := r.counters[name]; ok {
				out[name] = c.Value()
			} else if g, ok := r.gauges[name]; ok {
				out[name] = g.Value()
			}
		}
		return out
	}
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// Sample unconditionally takes one snapshot into the ring. Safe on nil and
// safe for concurrent use (concurrent writers claim distinct slots).
func (rc *Recorder) Sample() {
	if rc == nil {
		return
	}
	rc.store(rc.take())
}

// take snapshots the registry without storing the sample.
func (rc *Recorder) take() *Sample {
	return &Sample{UnixMs: rc.now().UnixMilli(), Values: rc.reg.scalars(rc.names)}
}

// store writes s into the next ring slot.
func (rc *Recorder) store(s *Sample) {
	i := rc.seq.Add(1) - 1
	rc.slots[i%uint64(len(rc.slots))].Store(s)
}

// Tick takes a snapshot if at least one interval has elapsed since the
// newest sample, else does nothing. One atomic load on the quiet path, so
// the engine can call it at every level boundary. Safe on nil.
func (rc *Recorder) Tick() {
	if rc == nil {
		return
	}
	now := rc.now().UnixNano()
	last := rc.lastNs.Load()
	if now-last < int64(rc.interval) {
		return
	}
	if !rc.lastNs.CompareAndSwap(last, now) {
		return // someone else just sampled
	}
	rc.Sample()
}

// Start launches the background sampler: one immediate sample (so a
// freshly started endpoint serves data before the first interval elapses,
// skipped while nothing is registered, since it would hold no data), then
// a rate-limited tick per interval until Stop. Safe on nil; a second
// Start is a no-op until Stop.
func (rc *Recorder) Start() {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.stop != nil {
		return
	}
	rc.stop = make(chan struct{})
	rc.done = make(chan struct{})
	rc.lastNs.Store(rc.now().UnixNano())
	if s := rc.take(); len(s.Values) > 0 {
		rc.store(s)
	}
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(rc.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				rc.Tick()
			}
		}
	}(rc.stop, rc.done)
}

// Stop halts the background sampler and takes one final sample, so the
// ring's tail reflects the end state. Safe on nil and without Start.
func (rc *Recorder) Stop() {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.stop == nil {
		return
	}
	close(rc.stop)
	<-rc.done
	rc.stop, rc.done = nil, nil
	rc.Sample()
}

// Snapshot returns the ring's contents oldest to newest. Safe on nil
// (empty series). Concurrent writers may overwrite the oldest slot while
// it is read; every sample returned is individually consistent.
func (rc *Recorder) Snapshot() TimeSeries {
	if rc == nil {
		return TimeSeries{Samples: []Sample{}}
	}
	ts := TimeSeries{IntervalMs: rc.interval.Milliseconds(), Samples: []Sample{}}
	total := rc.seq.Load()
	n := uint64(len(rc.slots))
	start := uint64(0)
	if total > n {
		start = total - n
	}
	for i := start; i < total; i++ {
		if s := rc.slots[i%n].Load(); s != nil {
			ts.Samples = append(ts.Samples, *s)
		}
	}
	return ts
}
