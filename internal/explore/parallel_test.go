package explore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/obs"
)

// forcePool shrinks the fan-out thresholds so even the tiny state spaces of
// test protocols exercise the worker pool and multi-chunk merge paths, and
// restores them on cleanup.
func forcePool(t *testing.T) {
	t.Helper()
	oldThreshold, oldChunk := parallelThreshold, minChunkSize
	parallelThreshold, minChunkSize = 2, 1
	t.Cleanup(func() { parallelThreshold, minChunkSize = oldThreshold, oldChunk })
}

// equivalenceCase is one protocol instance for the parallel/sequential
// equivalence property.
type equivalenceCase struct {
	name   string
	config model.Config
	pids   []int
	opts   Options
	// capped marks cases whose space intentionally overflows MaxConfigs:
	// Count must still be deterministic (the merge caps at exactly the
	// same configuration for any worker count), but Steps may differ with
	// where the workers were truncated.
	capped bool
}

func equivalenceCases() []equivalenceCase {
	disk := consensus.DiskRace{}
	return []equivalenceCase{
		{
			name:   "chain",
			config: model.NewConfig(chainMachine{}, []model.Value{"3", "4"}),
			pids:   []int{0, 1},
		},
		{
			name:   "coin",
			config: model.NewConfig(coinMachine{}, []model.Value{"", ""}),
			pids:   []int{0, 1},
		},
		{
			name:   "flood3",
			config: model.NewConfig(consensus.Flood{}, []model.Value{"0", "1", "1"}),
			pids:   []int{0, 1, 2},
		},
		{
			name:   "coinflood2",
			config: model.NewConfig(consensus.CoinFlood{}, []model.Value{"0", "1"}),
			pids:   []int{0, 1},
		},
		{
			name:   "diskrace3-pair",
			config: model.NewConfig(disk, []model.Value{"0", "1", "1"}),
			pids:   []int{0, 1},
			opts:   Options{Canon: disk, MaxConfigs: 60000},
		},
		{
			name:   "diskrace3-capped",
			config: model.NewConfig(disk, []model.Value{"0", "1", "1"}),
			pids:   []int{0, 1, 2},
			opts:   Options{Canon: disk, MaxConfigs: 3000},
			capped: true,
		},
	}
}

// TestParallelSequentialEquivalence is the engine's core soundness
// property: for every protocol, Workers:1 and Workers:N visit exactly the
// same number of configurations (per the deterministic merge), examine the
// same number of transitions when the space is exhausted, and every
// recorded ID yields a witness path whose replay re-derives a configuration
// with the recorded canonical key. Run it under -race to also check the
// worker pool's synchronisation.
func TestParallelSequentialEquivalence(t *testing.T) {
	forcePool(t)
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				res  *Result
				keys []string
				err  error
			}
			runWith := func(workers int) run {
				opts := tc.opts
				opts.Workers = workers
				var keys []string
				res, err := Reach(context.Background(), tc.config, tc.pids, opts, func(v Visit) bool {
					if v.ID != len(keys) {
						t.Fatalf("visit IDs not sequential: got %d at visit %d", v.ID, len(keys))
					}
					keys = append(keys, opts.ConfigKey(v.Config))
					return true
				})
				if tc.capped {
					if !res.Capped {
						t.Fatalf("workers=%d: expected the %d-config cap to bind", workers, opts.MaxConfigs)
					}
				} else if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return run{res: res, keys: keys}
			}
			seq := runWith(1)
			for _, workers := range []int{2, 4, 7} {
				par := runWith(workers)
				if par.res.Count != seq.res.Count {
					t.Errorf("workers=%d: Count = %d, sequential = %d", workers, par.res.Count, seq.res.Count)
				}
				if !tc.capped && par.res.Steps != seq.res.Steps {
					t.Errorf("workers=%d: Steps = %d, sequential = %d", workers, par.res.Steps, seq.res.Steps)
				}
				// Witness validity: replaying PathTo(id) must land on a
				// configuration with the canonical key recorded for id.
				// (The key may differ from the sequential run's key for
				// the same id — same-level duplicates may elect a
				// different representative — but it must be internally
				// consistent.)
				opts := tc.opts
				for id, key := range par.keys {
					path, ok := par.res.PathTo(id)
					if !ok {
						t.Fatalf("workers=%d: PathTo(%d) failed", workers, id)
					}
					got := opts.ConfigKey(model.RunPath(tc.config, path))
					if got != key {
						t.Fatalf("workers=%d: replay of id %d lands on %q, visited %q", workers, id, got, key)
					}
				}
			}
		})
	}
}

// TestParallelSequentialEquivalenceDefaultThresholds repeats the count
// check without the shrunken thresholds, so the inline-small-level path and
// the real cut-over are covered too.
func TestParallelSequentialEquivalenceDefaultThresholds(t *testing.T) {
	disk := consensus.DiskRace{}
	c := model.NewConfig(disk, []model.Value{"0", "1", "1"})
	opts := Options{Canon: disk, MaxConfigs: 60000}
	counts := make(map[int]int)
	for _, workers := range []int{1, 4} {
		o := opts
		o.Workers = workers
		res, err := Reach(context.Background(), c, []int{0, 1}, o, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		counts[workers] = res.Count
	}
	if counts[1] != counts[4] {
		t.Fatalf("counts diverge across worker counts: %v", counts)
	}
}

// TestStreamingKeysMatchStringKeys pins the contract that lets the hot path
// skip key materialisation: for every reachable configuration of every seed
// protocol, hashing the streamed key must equal hashing the reference
// string key.
func TestStreamingKeysMatchStringKeys(t *testing.T) {
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			hs := new(hasher)
			checked := 0
			_, err := Reach(context.Background(), tc.config, tc.pids, opts, func(v Visit) bool {
				want := fingerprintOf(opts.ConfigKey(v.Config))
				if got := hs.fingerprint(&opts, v.Config); got != want {
					t.Fatalf("config %d: streamed fingerprint %x != string fingerprint %x (key %q)",
						v.ID, got, want, opts.ConfigKey(v.Config))
				}
				checked++
				return checked < 5000
			})
			if err != nil && !errors.Is(err, ErrCapped) {
				t.Fatal(err)
			}
		})
	}
}

// TestReachFrontierBoundedLiveHeap is the regression test for frontier
// compaction: on a deep linear protocol (one process, one configuration
// per level) the level-based frontier must stay at a single entry, and the
// whole search must cost a small constant number of allocations per
// configuration — retaining a capacity-bloated queue or allocating fresh
// per-level buffers would blow the bound immediately.
func TestReachFrontierBoundedLiveHeap(t *testing.T) {
	const depth = 2000
	c := model.NewConfig(chainMachine{}, []model.Value{model.Value(fmt.Sprintf("%d", depth))})
	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		res, err = Reach(context.Background(), c, []int{0}, Options{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	if res.Count != depth+1 {
		t.Fatalf("Count = %d, want %d", res.Count, depth+1)
	}
	if res.PeakFrontier != 1 {
		t.Fatalf("PeakFrontier = %d, want 1 on a linear protocol", res.PeakFrontier)
	}
	perConfig := allocs / float64(res.Count)
	if perConfig > 16 {
		t.Fatalf("%.1f allocations per configuration (total %.0f for %d configs); frontier or key handling is allocating again",
			perConfig, allocs, res.Count)
	}
	t.Logf("%.2f allocs/config over %d configs, peak frontier %d", perConfig, res.Count, res.PeakFrontier)
}

// TestReachPeakFrontierReported sanity-checks PeakFrontier on a branching
// space: two independent coin flippers have 4 leaf configurations, so some
// level must hold more than one entry.
func TestReachPeakFrontierReported(t *testing.T) {
	c := model.NewConfig(coinMachine{}, []model.Value{"", ""})
	res, err := Reach(context.Background(), c, []int{0, 1}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakFrontier < 2 {
		t.Fatalf("PeakFrontier = %d, want >= 2", res.PeakFrontier)
	}
}

// TestReachEnabledScopeKeepsAllocBound re-runs the live-heap regression
// with a metrics-enabled observability scope attached: instrumentation is
// per-level, so even on the pathological one-config-per-level chain the
// allocation budget must hold. The counters it leaves behind double as a
// correctness check of the per-level accounting.
func TestReachEnabledScopeKeepsAllocBound(t *testing.T) {
	const depth = 2000
	c := model.NewConfig(chainMachine{}, []model.Value{model.Value(fmt.Sprintf("%d", depth))})
	scope := obs.NewScope(nil)
	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		res, err = Reach(context.Background(), c, []int{0}, Options{Workers: 1, Obs: scope}, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	perConfig := allocs / float64(res.Count)
	if perConfig > 16 {
		t.Fatalf("%.1f allocations per configuration with observability on (total %.0f for %d configs); instrumentation has entered the per-configuration path",
			perConfig, allocs, res.Count)
	}
	snap := scope.Registry().Snapshot()
	// 4 runs of depth+1 configurations each (the initial configuration is
	// not a level's frontier entry, so each run accounts depth of them).
	if got := snap["explore_configs"]; got != int64(4*depth) {
		t.Fatalf("explore_configs = %v, want %d", got, 4*depth)
	}
	// The deepest recorded level is the empty one past the chain's end.
	if got := snap["explore_depth"]; got != int64(depth+1) {
		t.Fatalf("explore_depth = %v, want %d", got, depth+1)
	}
	t.Logf("%.2f allocs/config with metrics scope enabled", perConfig)
}

// TestReachBytesPerConfig bounds the bytes a large search allocates per
// visited configuration, which the allocation-count gates cannot see: an
// append-grown node forest or frontier, or a raw-duplicate pre-filter
// sized to the whole search, allocates several times what the search
// keeps in a handful of allocations; nor can they see a configuration
// unpacked and copied per kept child. The run is DiskRace n=5 capped at
// 262,144 configurations, at one worker and at two, and at one worker with
// a visit callback that reads Config.Decided for every process, the
// valency oracle's hot-path shape.
func TestReachBytesPerConfig(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocations; the bound is a production one")
	}
	const maxBytesPerConfig = 175
	disk := consensus.DiskRace{}
	c := model.NewConfig(disk, []model.Value{"0", "1", "1", "1", "1"})
	decidedSeen := 0
	decided := func(v Visit) bool {
		for pid := 0; pid < v.Config.NumProcesses(); pid++ {
			if _, ok := v.Config.Decided(pid); ok {
				decidedSeen++
			}
		}
		return true
	}
	for _, tc := range []struct {
		name    string
		workers int
		visit   func(Visit) bool
	}{
		{"workers=1", 1, nil},
		{"workers=2", 2, nil},
		{"workers=1 decided-visit", 1, decided},
	} {
		opts := Options{Canon: disk, MaxConfigs: 262_144, Workers: tc.workers}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Reach(context.Background(), c, []int{0, 1, 2, 3, 4}, opts, tc.visit)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCapped) {
			t.Fatalf("%s: err = %v, want the cap to bind", tc.name, err)
		}
		perConfig := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Count)
		t.Logf("%s: %.1f bytes/config over %d configs", tc.name, perConfig, res.Count)
		if perConfig > maxBytesPerConfig {
			t.Errorf("%s: %.1f bytes allocated per configuration, bound %d", tc.name, perConfig, maxBytesPerConfig)
		}
	}
	if decidedSeen == 0 {
		t.Error("the Decided callback saw no decided process")
	}
}
