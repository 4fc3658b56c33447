package obs

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fakeClock hands out strictly increasing instants, one per call, so
// recorder tests are fully deterministic.
type fakeClock struct {
	base time.Time
	step time.Duration
	n    int
}

func (f *fakeClock) now() time.Time {
	f.n++
	return f.base.Add(time.Duration(f.n) * f.step)
}

var goldenBase = time.UnixMilli(1_700_000_000_000).UTC()

// TestRecorderRingWraps pins the ring semantics: more samples than slots
// keeps the newest len(slots), oldest to newest.
func TestRecorderRingWraps(t *testing.T) {
	reg := NewRegistry()
	cfgs := reg.Counter("explore_configs")
	rc := NewRecorder(reg, time.Second, 4)
	rc.now = (&fakeClock{base: goldenBase, step: time.Second}).now

	for i := 0; i < 6; i++ {
		cfgs.Add(100)
		rc.Sample()
	}
	ts := rc.Snapshot()
	if len(ts.Samples) != 4 {
		t.Fatalf("ring of 4 holds %d samples after 6 writes", len(ts.Samples))
	}
	// Samples 3..6 survive; the counter was at 300..600 when they were taken.
	for i, s := range ts.Samples {
		if want := int64((i + 3) * 100); s.Values["explore_configs"] != want {
			t.Fatalf("sample %d: explore_configs = %d, want %d", i, s.Values["explore_configs"], want)
		}
		if i > 0 && s.UnixMs <= ts.Samples[i-1].UnixMs {
			t.Fatalf("samples out of order: %d then %d", ts.Samples[i-1].UnixMs, s.UnixMs)
		}
	}
	if ts.IntervalMs != 1000 {
		t.Fatalf("IntervalMs = %d, want 1000", ts.IntervalMs)
	}
}

// TestRecorderTickRateLimited checks the CAS limiter shared by the
// background sampler and the engine's level-edge ticks: ticks closer
// together than the interval collapse into one sample.
func TestRecorderTickRateLimited(t *testing.T) {
	reg := NewRegistry()
	rc := NewRecorder(reg, time.Second, 16)
	clock := &fakeClock{base: goldenBase, step: 100 * time.Millisecond}
	rc.now = clock.now

	// 20 ticks at 100ms apart (every Tick consumes one clock step, a
	// sampling Tick consumes two): far fewer than 20 samples may land.
	for i := 0; i < 20; i++ {
		rc.Tick()
	}
	got := len(rc.Snapshot().Samples)
	if got == 0 || got > 3 {
		t.Fatalf("20 sub-interval ticks produced %d samples, want 1-3", got)
	}
}

// TestRecorderNilSafe pins the disabled state: every method on a nil
// recorder is a no-op and Snapshot returns an empty (not nil) series.
func TestRecorderNilSafe(t *testing.T) {
	var rc *Recorder
	rc.Sample()
	rc.Tick()
	rc.Start()
	rc.Stop()
	ts := rc.Snapshot()
	if ts.Samples == nil || len(ts.Samples) != 0 {
		t.Fatalf("nil recorder snapshot = %+v, want empty non-nil samples", ts)
	}
}

// TestRecorderStartStop exercises the background sampler for real: Start
// takes an immediate sample, Stop takes a final one, and a second
// Start/Stop cycle works.
func TestRecorderStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("explore_depth").Set(7)
	rc := NewRecorder(reg, time.Hour, 8) // interval long enough to never fire
	rc.Start()
	rc.Start() // second Start is a no-op, not a second goroutine
	rc.Stop()
	rc.Stop() // idempotent
	ts := rc.Snapshot()
	if len(ts.Samples) != 2 {
		t.Fatalf("Start+Stop took %d samples, want 2 (immediate + final)", len(ts.Samples))
	}
	if ts.Samples[0].Values["explore_depth"] != 7 {
		t.Fatalf("sample values = %v", ts.Samples[0].Values)
	}
	rc.Start()
	rc.Stop()
	if got := len(rc.Snapshot().Samples); got != 4 {
		t.Fatalf("second Start/Stop cycle: %d samples, want 4", got)
	}
}

// TestRecorderStartSkipsEmptyRegistry: Start's immediate sample is skipped
// while nothing is registered, since it would serve a sample with no
// values; the final sample at Stop still lands.
func TestRecorderStartSkipsEmptyRegistry(t *testing.T) {
	reg := NewRegistry()
	rc := NewRecorder(reg, time.Hour, 8)
	rc.Start()
	reg.Gauge("explore_depth").Set(3)
	rc.Stop()
	ts := rc.Snapshot()
	if len(ts.Samples) != 1 || ts.Samples[0].Values["explore_depth"] != 3 {
		t.Fatalf("samples = %+v, want only the final one", ts.Samples)
	}
}

// TestTimeseriesEndpointGolden locks the /timeseries JSON wire format
// against testdata/timeseries_golden.json: a deterministic clock and a
// scripted engine make the body byte-for-byte reproducible. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/obs -run TimeseriesEndpointGolden.
func TestTimeseriesEndpointGolden(t *testing.T) {
	scope := NewScope(nil)
	rc := NewRecorder(scope.Registry(), time.Second, 8, "explore_configs", "explore_depth")
	rc.now = (&fakeClock{base: goldenBase, step: time.Second}).now
	scope.SetRecorder(rc)

	cfgs := scope.Counter("explore_configs")
	depth := scope.Gauge("explore_depth")
	for level := 1; level <= 3; level++ {
		cfgs.Add(int64(level * 1000))
		depth.Set(int64(level))
		scope.Recorder().Sample()
	}

	rr := httptest.NewRecorder()
	Handler(scope).ServeHTTP(rr, httptest.NewRequest("GET", "/timeseries", nil))
	if rr.Code != 200 {
		t.Fatalf("/timeseries status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}

	golden := filepath.Join("testdata", "timeseries_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, rr.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got := rr.Body.String(); got != string(want) {
		t.Fatalf("/timeseries drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
