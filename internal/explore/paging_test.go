package explore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
)

// shrinkPaging shrinks the raw-duplicate cache to one slot per stripe, the
// node forest's pages to two nodes and the frontier's pages to three
// entries, so eviction and every page boundary occur on tiny spaces, and
// restores them on cleanup.
func shrinkPaging(t *testing.T) {
	t.Helper()
	oldCache, oldForest, oldBatch := rawCacheMax, forestPageBits, arenaBatch
	rawCacheMax, forestPageBits, arenaBatch = 1, 1, 3
	t.Cleanup(func() { rawCacheMax, forestPageBits, arenaBatch = oldCache, oldForest, oldBatch })
}

// zooCases returns every consensus protocol at every n from 2 to 4 it
// runs at: all processes at n=2, the pair {0,1} at n=3 and 4 (spaces the
// naive BFS exhausts in well under a second), and all processes at n=3
// and 4 under a cap, which binds unless the space is smaller.
func zooCases() []equivalenceCase {
	disk := consensus.DiskRace{}
	zoo := []struct {
		m     model.Machine
		opts  Options
		maxN  int
		input func(pid int) model.Value
	}{
		{disk, Options{Canon: disk}, 4, nil},
		{consensus.Flood{}, Options{}, 4, nil},
		{consensus.EagerFlood{}, Options{}, 4, nil},
		{consensus.GreedyFlood{}, Options{}, 4, nil},
		{consensus.CoinFlood{}, Options{}, 2, nil},
		{consensus.AdoptCommit{}, Options{}, 4, nil},
		{consensus.SwapPair{}, Options{}, 2, nil},
		{consensus.KSet{K: 2}, Options{}, 4, nil},
	}
	var cases []equivalenceCase
	for _, z := range zoo {
		for n := 2; n <= z.maxN; n++ {
			inputs := make([]model.Value, n)
			all := make([]int, n)
			for pid := range inputs {
				inputs[pid] = model.Value(fmt.Sprint(pid % 2))
				all[pid] = pid
			}
			c := model.NewConfig(z.m, inputs)
			name := fmt.Sprintf("%s-n%d", z.m.Name(), n)
			if n == 2 {
				cases = append(cases, equivalenceCase{name: name, config: c, pids: all, opts: z.opts})
				continue
			}
			capped := z.opts
			capped.MaxConfigs = 1500
			cases = append(cases,
				equivalenceCase{name: name + "-pair", config: c, pids: []int{0, 1}, opts: z.opts},
				equivalenceCase{name: name + "-all", config: c, pids: all, opts: capped})
		}
	}
	return cases
}

// TestPagedMatchesReference holds Reach with a one-slot raw cache and
// pages of a few entries to the naive reference BFS on every protocol at
// n≤4: the same Count, the same Steps on exhausted spaces, the same
// fingerprint set, the same keys id for id at one worker, and witness
// paths that replay to the visited keys through the paged forest.
func TestPagedMatchesReference(t *testing.T) {
	forcePool(t)
	shrinkPaging(t)
	for _, tc := range zooCases() {
		t.Run(tc.name, func(t *testing.T) {
			naive := naiveReach(tc.config, tc.pids, tc.opts)
			tc.capped = naive.capped
			want := sortedFingerprints(naive.keys)
			for _, workers := range []int{1, 4} {
				opts := tc.opts
				opts.Workers = workers
				var keys []string
				res, err := Reach(context.Background(), tc.config, tc.pids, opts, func(v Visit) bool {
					keys = append(keys, opts.ConfigKey(v.Config))
					return true
				})
				if err != nil && !(tc.capped && errors.Is(err, ErrCapped)) {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Count != len(naive.keys) || len(keys) != len(naive.keys) {
					t.Fatalf("workers=%d: Count=%d visits=%d, naive %d", workers, res.Count, len(keys), len(naive.keys))
				}
				if !tc.capped && res.Steps != naive.steps {
					t.Errorf("workers=%d: Steps=%d, naive %d", workers, res.Steps, naive.steps)
				}
				if workers == 1 && !slices.Equal(keys, naive.keys) {
					t.Fatalf("workers=%d: visit keys diverge from the naive order", workers)
				}
				if !(tc.capped && workers > 1) && !slices.Equal(sortedFingerprints(keys), want) {
					t.Fatalf("workers=%d: fingerprint sets diverge", workers)
				}
				// Every path crosses forest pages (two nodes a page), so a
				// sample of ids covers the paging; replaying all is
				// quadratic.
				for id := len(keys) - 1; id >= 0; id -= 1 + len(keys)/64 {
					key := keys[id]
					path, ok := res.PathTo(id)
					if !ok {
						t.Fatalf("workers=%d: PathTo(%d) failed", workers, id)
					}
					if got := opts.ConfigKey(model.RunPath(tc.config, path)); got != key {
						t.Fatalf("workers=%d: replay of id %d lands on %q, visited %q", workers, id, got, key)
					}
				}
			}
		})
	}
}

// sortedFingerprints returns the fingerprints of keys in ascending order.
func sortedFingerprints(keys []string) []Fingerprint {
	out := make([]Fingerprint, len(keys))
	for i, k := range keys {
		out[i] = fingerprintOf(k)
	}
	slices.SortFunc(out, func(a, b Fingerprint) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return out
}

// TestPagedReachSetsDeterministic repeats the mask-determinism test with
// the paging shrunk, so a search over several process sets, whose records
// carry a mask word, crosses forest and frontier page boundaries and runs
// with constant raw-cache eviction.
func TestPagedReachSetsDeterministic(t *testing.T) {
	shrinkPaging(t)
	TestReachSetsDeterministic(t)
}
