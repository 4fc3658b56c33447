package explore

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestReachPackedObservedAllocBound is the flight-recorder overhead gate on
// the production path: a packed-arena DiskRace search with a fully enabled
// scope — counters, gauges, probe-length histogram AND a live time-series
// recorder ticking at every level — must stay within the same 4 allocs per
// configuration budget that benchreport -check enforces. Instrumentation is
// per-level; if anything leaks into the per-configuration loop this blows up
// immediately.
func TestReachPackedObservedAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates alloc counts; the 4 allocs/config gate is a production bound")
	}
	disk := consensus.DiskRace{}
	c := model.NewConfig(disk, []model.Value{"0", "1", "1"})
	opts := Options{
		Canon:      disk,
		MaxConfigs: 20_000,
		Workers:    1,
	}
	scope := obs.NewScope(nil)
	rec := obs.NewRecorder(scope.Registry(), time.Microsecond, 64)
	scope.SetRecorder(rec)
	opts.Obs = scope

	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		res, err = Reach(context.Background(), c, []int{0, 1, 2}, opts, nil)
		if err != nil && !errors.Is(err, ErrCapped) {
			t.Fatal(err)
		}
	})
	perConfig := allocs / float64(res.Count)
	if perConfig > 4 {
		t.Fatalf("%.2f allocations per configuration with recorder + metrics enabled (total %.0f for %d configs); the flight recorder has entered the hot path",
			perConfig, allocs, res.Count)
	}
	snap := scope.Registry().Snapshot()
	for _, name := range []string{
		"explore_fpset_entries", "explore_fpset_load_permille",
		"explore_arena_words", "explore_arena_peak_words",
		"explore_codec_dict_states", "explore_codec_dict_values",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %q missing from snapshot", name)
		}
	}
	if ts := rec.Snapshot(); len(ts.Samples) == 0 {
		t.Error("recorder took no samples despite per-level ticks")
	}
	t.Logf("%.2f allocs/config with recorder on, %d recorder samples", perConfig, len(rec.Snapshot().Samples))
}

// TestReachParallelMetricsAggregation checks the shard-aggregated hot-path
// metrics under a real worker pool (run it with -race): the per-chunk stepper
// memo deltas folded by the coordinator must add up exactly — every examined
// transition calls StepPacked once, so memo hits + misses == Result.Steps —
// and the FPSet gauges sampled at the last level must agree with the final
// visited-set size, which on an exhausted space is the configuration count.
func TestReachParallelMetricsAggregation(t *testing.T) {
	forcePool(t)
	c := model.NewConfig(consensus.Flood{}, []model.Value{"0", "1", "1"})
	scope := obs.NewScope(nil)
	res, err := Reach(context.Background(), c, []int{0, 1, 2}, Options{Workers: 4, Obs: scope}, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := scope.Registry().Snapshot()
	hits, _ := snap["explore_stepper_memo_hits"].(int64)
	misses, _ := snap["explore_stepper_memo_misses"].(int64)
	if got := hits + misses; got != int64(res.Steps) {
		t.Fatalf("stepper memo hits(%d) + misses(%d) = %d, want Steps = %d; per-chunk deltas were lost or double-counted",
			hits, misses, got, res.Steps)
	}
	if hits == 0 {
		t.Error("stepper memo recorded no hits on an exhaustive search with duplicates")
	}
	rawHits, _ := snap["explore_raw_prefilter_hits"].(int64)
	if rawHits < 0 || rawHits > int64(res.Steps) {
		t.Fatalf("raw prefilter hits = %d, outside [0, Steps=%d]", rawHits, res.Steps)
	}
	if got, _ := snap["explore_fpset_entries"].(int64); got != int64(res.Count) {
		t.Fatalf("explore_fpset_entries = %d, want Count = %d", got, res.Count)
	}
	if load, _ := snap["explore_fpset_load_permille"].(int64); load <= 0 {
		t.Fatalf("explore_fpset_load_permille = %d, want > 0", load)
	}
	probeHist, _ := snap["explore_fpset_probe_len"].(map[string]int64)
	if probeHist["count"] == 0 {
		t.Error("probe-length histogram sampled nothing")
	}
}

// TestSearchMetricsNilScope pins the no-op contract: a search without a
// scope resolves no instruments and every fold/level call is safe.
func TestSearchMetricsNilScope(t *testing.T) {
	m := newSearchMetrics(nil)
	if m.rawHits != nil {
		t.Fatal("nil scope produced enabled metrics")
	}
	m.chunkDeltas(&chunk{rawHits: 3, stepHits: 2, stepMisses: 1})
	// level() needs a search; its call site skips it when Options.Obs is
	// nil, so nothing more here.
}
