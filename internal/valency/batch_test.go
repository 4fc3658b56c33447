package valency

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestDecideBatchMatchesDecidable: the batched verdicts must coincide with
// a fresh sequential oracle's Decidable on every candidate — same decidable
// sets, replayable witnesses — across random reachable flood configurations.
func TestDecideBatchMatchesDecidable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cands := [][]int{{0}, {1}, {0, 1}}
	for trial := 0; trial < 60; trial++ {
		c := floodConfig("0", "1")
		for s := 0; s < rng.Intn(12); s++ {
			c = c.StepDet(rng.Intn(2))
		}
		batched := New(explore.Options{})
		verdicts, err := batched.DecideBatch(context.Background(), c, cands)
		if err != nil {
			t.Fatal(err)
		}
		sequential := New(explore.Options{})
		for i, p := range cands {
			want, err := sequential.Decidable(context.Background(), c, p)
			if err != nil {
				t.Fatal(err)
			}
			got := verdicts[i]
			for _, val := range []model.Value{V0, V1} {
				if got.Decidable[val] != want.Decidable[val] {
					t.Fatalf("trial %d set %v: batch decidable[%s]=%v, sequential=%v",
						trial, p, string(val), got.Decidable[val], want.Decidable[val])
				}
			}
			for val := range got.Decidable {
				if !model.RunPath(c, got.Witness[val]).DecidedValues()[val] {
					t.Fatalf("trial %d set %v: batch witness for %s does not replay", trial, p, string(val))
				}
			}
		}
	}
}

// TestProbeBivalentBatchMatchesSequential: with an unbounded budget both the
// batch and the one-candidate probes are exact, so their answers must agree
// on DiskRace Lemma 1 candidate sets.
func TestProbeBivalentBatchMatchesSequential(t *testing.T) {
	disk := consensus.DiskRace{}
	opts := explore.Options{Canon: disk}
	c := model.NewConfig(disk, []model.Value{"0", "1", "1"})
	p := []int{0, 1, 2}
	cands := make([][]int, len(p))
	for i, z := range p {
		cands[i] = model.Without(p, z)
	}
	batched := New(opts)
	got, err := batched.ProbeBivalentBatch(context.Background(), c, cands, 0)
	if err != nil {
		t.Fatal(err)
	}
	sequential := New(opts)
	for i, cand := range cands {
		want, err := sequential.ProbeBivalentBatch(context.Background(), c, [][]int{cand}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want[0] {
			t.Fatalf("candidate %v: batch=%v sequential=%v", cand, got[i], want[0])
		}
	}
}

// TestBatchMemoProtocol pins the batch's memoisation contract to the
// sequential probe's: memoised answers hit, positive and exhausted verdicts
// are exact and memoised, budget-capped misses leave the memo untouched.
func TestBatchMemoProtocol(t *testing.T) {
	t.Run("positive and exhausted memoised", func(t *testing.T) {
		o := New(explore.Options{})
		c := floodConfig("0", "1")
		// {0,1} is bivalent (solo certificates), {0} and {1} are univalent
		// (exhausted in budget): all three verdicts become exact memo rows.
		if _, err := o.ProbeBivalentBatch(context.Background(), c, [][]int{{0, 1}, {0}, {1}}, 0); err != nil {
			t.Fatal(err)
		}
		before := o.Stats()
		for _, p := range [][]int{{0, 1}, {0}, {1}} {
			if _, err := o.Decidable(context.Background(), c, p); err != nil {
				t.Fatal(err)
			}
		}
		if s := o.Stats(); s.Hits != before.Hits+3 {
			t.Fatalf("stats %+v -> %+v, want 3 memo hits", before, s)
		}
	})
	t.Run("inconclusive not memoised", func(t *testing.T) {
		disk := consensus.DiskRace{}
		o := New(explore.Options{Canon: disk})
		// Unanimous inputs: no bivalence certificate exists and the
		// 2-process spaces are too big for the budget, so every candidate
		// is inconclusive.
		c := model.NewConfig(disk, []model.Value{"1", "1", "1"})
		cands := [][]int{{0, 1}, {0, 2}, {1, 2}}
		got, err := o.ProbeBivalentBatch(context.Background(), c, cands, 48)
		if err != nil {
			t.Fatal(err)
		}
		for i, biv := range got {
			if biv {
				t.Fatalf("budget-capped candidate %v claimed bivalence", cands[i])
			}
		}
		before := o.Stats()
		v, err := o.Decidable(context.Background(), c, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if o.Stats().Hits != before.Hits {
			t.Fatal("inconclusive batch outcome was memoised")
		}
		if got, ok := v.Univalent(); !ok || got != V1 {
			t.Fatalf("unanimous pair decidable = %v, want 1-univalent", v.Decidable)
		}
	})
	t.Run("DecideBatch errors when capped", func(t *testing.T) {
		o := New(explore.Options{MaxConfigs: 4, Canon: consensus.DiskRace{}})
		c := model.NewConfig(consensus.DiskRace{}, []model.Value{"1", "1", "1"})
		if _, err := o.DecideBatch(context.Background(), c, [][]int{{0, 1}}); err == nil {
			t.Fatal("capped DecideBatch returned verdicts")
		}
	})
}

// TestQueryKeyAllocs pins the memo-hit fast path's allocation budget: with
// the oracle's reusable fingerprint scratch, a memoised Decidable query
// must not allocate per call.
func TestQueryKeyAllocs(t *testing.T) {
	o := New(explore.Options{})
	c := floodConfig("0", "1")
	p := []int{0, 1}
	ctx := context.Background()
	if _, err := o.Decidable(ctx, c, p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := o.Decidable(ctx, c, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("memo-hit Decidable allocates %.1f per query, want <= 2", allocs)
	}
}

// TestBatchSearchObservesQueryLatency: a many-candidate probe that reaches
// its search lands in valency_query_us like a one-candidate query does, so
// /metrics latency quantiles cover searches over several candidates.
func TestBatchSearchObservesQueryLatency(t *testing.T) {
	scope := obs.NewScope(nil)
	disk := consensus.DiskRace{}
	o := New(explore.Options{Obs: scope, Canon: disk})
	// Unanimous inputs: no solo certificate settles any candidate, so the
	// batch runs its search.
	c := model.NewConfig(disk, []model.Value{"1", "1", "1"})
	hist := scope.Histogram("valency_query_us", QueryLatencyBoundsMicros)
	if _, err := o.ProbeBivalentBatch(context.Background(), c, [][]int{{0, 1}, {0, 2}, {1, 2}}, 48); err != nil {
		t.Fatal(err)
	}
	if got := hist.Count(); got != 1 {
		t.Fatalf("valency_query_us count = %d after one batch search, want 1", got)
	}
}
