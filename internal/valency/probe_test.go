package valency

import (
	"context"
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
)

// TestSoloDecidingMemoised pins the solo memo: identical (configuration,
// pid) queries hit the cache, and the cached path replays to a decision
// just like the original.
func TestSoloDecidingMemoised(t *testing.T) {
	o := New(explore.Options{})
	c := floodConfig("0", "1")
	p1, v1, err := o.SoloDeciding(context.Background(), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, v2, err := o.SoloDeciding(context.Background(), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || len(p1) != len(p2) {
		t.Fatalf("memoised answer differs: (%s,%d) vs (%s,%d)", string(v1), len(p1), string(v2), len(p2))
	}
	s := o.Stats()
	if s.SoloQueries != 2 || s.SoloHits != 1 {
		t.Fatalf("stats = %+v, want 2 solo queries with 1 hit", s)
	}
	end := model.RunPath(c, p2)
	if got, ok := end.Decided(1); !ok || got != v2 {
		t.Fatal("memoised solo witness does not replay to a decision")
	}
	// The returned paths must be independent copies: mutating one caller's
	// path must not corrupt the memo.
	if len(p1) > 0 {
		p1[0] = model.Move{Pid: 99}
		p3, _, err := o.SoloDeciding(context.Background(), c, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p3[0].Pid == 99 {
			t.Fatal("caller mutation leaked into the solo memo")
		}
	}
}

// probeOne probes the single candidate p, whose search is a one-set
// Reach.
func probeOne(o *Oracle, c model.Config, p []int, budget int) (bool, error) {
	got, err := o.ProbeBivalentBatch(context.Background(), c, [][]int{p}, budget)
	if err != nil {
		return false, err
	}
	return got[0], nil
}

// TestProbeBivalentPositive: a mixed-input pair is bivalent, and the probe
// should certify it from solo executions alone — no exhaustive search, so
// a tiny budget suffices.
func TestProbeBivalentPositive(t *testing.T) {
	o := New(explore.Options{})
	c := floodConfig("0", "1")
	biv, err := probeOne(o, c, []int{0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !biv {
		t.Fatal("probe failed to certify bivalence of the mixed-input pair")
	}
	// The certificate was memoised as a full verdict: Decidable must hit.
	before := o.Stats()
	v, err := o.Decidable(context.Background(), c, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bivalent() {
		t.Fatal("memoised probe verdict is not bivalent")
	}
	if o.Stats().Hits != before.Hits+1 {
		t.Fatalf("Decidable after probe did not hit the memo: %+v -> %+v", before, o.Stats())
	}
	for val, path := range v.Witness {
		if !model.RunPath(c, path).DecidedValues()[val] {
			t.Fatalf("probe witness for %s does not decide it", string(val))
		}
	}
}

// TestProbeBivalentExhaustedIsExact: a singleton set is univalent; its solo
// space is tiny, so the probe exhausts it in budget and the negative answer
// is exact and memoised.
func TestProbeBivalentExhaustedIsExact(t *testing.T) {
	o := New(explore.Options{})
	c := floodConfig("0", "1")
	biv, err := probeOne(o, c, []int{0}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if biv {
		t.Fatal("singleton set reported bivalent")
	}
	before := o.Stats()
	if v, err := o.Decidable(context.Background(), c, []int{0}); err != nil {
		t.Fatal(err)
	} else if got, ok := v.Univalent(); !ok || got != V0 {
		t.Fatalf("{p0} decidable = %v, want 0-univalent", v.Decidable)
	}
	if o.Stats().Hits != before.Hits+1 {
		t.Fatal("exhausted probe verdict was not memoised")
	}
}

// TestProbeBivalentInconclusiveNotMemoised: with a budget too small to find
// any certificate on a univalent query, the probe must answer (false, nil)
// and leave the memo empty so a later exhaustive Decidable is unimpeded.
func TestProbeBivalentInconclusiveNotMemoised(t *testing.T) {
	disk := consensus.DiskRace{}
	o := New(explore.Options{Canon: disk})
	// Unanimous inputs: {p0,p1} is 1-univalent, so no bivalence
	// certificate exists; the budget caps the refutation.
	inputs := []model.Value{"1", "1", "1"}
	c := model.NewConfig(disk, inputs)
	biv, err := probeOne(o, c, []int{0, 1}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if biv {
		t.Fatal("budget-capped probe claimed bivalence")
	}
	before := o.Stats()
	v, err := o.Decidable(context.Background(), c, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats().Hits != before.Hits {
		t.Fatal("inconclusive probe was memoised; exhaustive query hit a possibly-wrong verdict")
	}
	if got, ok := v.Univalent(); !ok || got != V1 {
		t.Fatalf("unanimous diskrace pair decidable = %v, want 1-univalent", v.Decidable)
	}
}

// TestSharedMemoAcrossOracles: two oracles constructed over one Memo with
// identical options share answers — the second oracle's identical query is
// a pure hit.
func TestSharedMemoAcrossOracles(t *testing.T) {
	memo := NewMemo()
	opts := explore.Options{}
	a := NewWithMemo(opts, memo)
	b := NewWithMemo(opts, memo)
	c := floodConfig("0", "1")
	if _, err := a.Decidable(context.Background(), c, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Decidable(context.Background(), c, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Queries != 1 || s.Hits != 1 {
		t.Fatalf("second oracle stats = %+v, want a pure memo hit", s)
	}
	// Solo answers are shared through the same memo.
	if _, _, err := a.SoloDeciding(context.Background(), c, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.SoloDeciding(context.Background(), c, 0); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.SoloHits == 0 {
		t.Fatalf("second oracle solo stats = %+v, want a solo memo hit", s)
	}
}
