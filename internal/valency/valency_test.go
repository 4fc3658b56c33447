package valency

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
)

func floodConfig(inputs ...model.Value) model.Config {
	return model.NewConfig(consensus.Flood{}, inputs)
}

func TestOppositeValues(t *testing.T) {
	if Opposite(V0) != V1 || Opposite(V1) != V0 {
		t.Fatal("Opposite is wrong")
	}
}

// TestDefinition1OnFlood pins the textbook facts at n=2: mixed inputs are
// bivalent for the pair, each singleton is univalent for its own input
// (Proposition 2), and unanimous inputs are univalent for everyone.
// TestVerdictAnyDeterministic pins Verdict.Any's choice: V0 before V1,
// then the least other value, never Go's randomised map order.
func TestVerdictAnyDeterministic(t *testing.T) {
	bivalent := &Verdict{Decidable: map[model.Value]bool{V1: true, V0: true, "2": true}}
	for i := 0; i < 1000; i++ {
		if got, ok := bivalent.Any(); !ok || got != V0 {
			t.Fatalf("call %d: bivalent Any = %q, %t; want %q", i, got, ok, V0)
		}
	}
	others := &Verdict{Decidable: map[model.Value]bool{"9": true, V1: true, "3": true}}
	if got, _ := others.Any(); got != V1 {
		t.Fatalf("Any = %q, want %q", got, V1)
	}
	delete(others.Decidable, V1)
	if got, _ := others.Any(); got != "3" {
		t.Fatalf("Any = %q, want the least value %q", got, "3")
	}
	if _, ok := (&Verdict{}).Any(); ok {
		t.Fatal("Any on an empty verdict reported a value")
	}
}

func TestDefinition1OnFlood(t *testing.T) {
	o := New(explore.Options{})
	mixed := floodConfig("0", "1")

	v, err := o.Decidable(context.Background(), mixed, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bivalent() {
		t.Fatalf("pair not bivalent from mixed inputs: %v", v.Decidable)
	}
	for pid, want := range map[int]model.Value{0: V0, 1: V1} {
		v, err := o.Decidable(context.Background(), mixed, []int{pid})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := v.Univalent()
		if !ok || got != want {
			t.Fatalf("{p%d} decidable = %v, want univalent %s", pid, v.Decidable, string(want))
		}
	}

	same := floodConfig("1", "1")
	v, err = o.Decidable(context.Background(), same, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := v.Univalent(); !ok || got != V1 {
		t.Fatalf("unanimous inputs decidable = %v", v.Decidable)
	}
}

// TestProposition1Properties property-checks Proposition 1 (i)-(iii) on
// random reachable flood configurations at n=2: (i) non-empty sets decide
// something; (ii) supersets inherit decidable values; (iii) subsets of
// univalent sets stay univalent with the same value.
func TestProposition1Properties(t *testing.T) {
	o := New(explore.Options{})
	rng := rand.New(rand.NewSource(3))
	sets := [][]int{{0}, {1}, {0, 1}}
	for trial := 0; trial < 150; trial++ {
		c := floodConfig("0", "1")
		for s := 0; s < rng.Intn(14); s++ {
			c = c.StepDet(rng.Intn(2))
		}
		verdicts := make(map[int]*Verdict, 3)
		for i, set := range sets {
			v, err := o.Decidable(context.Background(), c, set)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := v.Any(); !ok {
				t.Fatalf("trial %d: set %v decides nothing (Prop 1(i))", trial, set)
			}
			verdicts[i] = v
		}
		pair := verdicts[2]
		for i := 0; i <= 1; i++ {
			for val := range verdicts[i].Decidable {
				if !pair.Decidable[val] {
					t.Fatalf("trial %d: {p%d} decides %s but the pair does not (Prop 1(ii))",
						trial, i, string(val))
				}
			}
		}
		if val, ok := pair.Univalent(); ok {
			for i := 0; i <= 1; i++ {
				got, uok := verdicts[i].Univalent()
				if !uok || got != val {
					t.Fatalf("trial %d: pair %s-univalent but {p%d} decidable = %v (Prop 1(iii))",
						trial, string(val), i, verdicts[i].Decidable)
				}
			}
		}
	}
}

// TestWitnessesReplay checks that every witness path actually decides the
// claimed value when replayed.
func TestWitnessesReplay(t *testing.T) {
	o := New(explore.Options{})
	c := floodConfig("0", "1")
	v, err := o.Decidable(context.Background(), c, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for val, path := range v.Witness {
		end := model.RunPath(c, path)
		if !end.DecidedValues()[val] {
			t.Fatalf("witness for %s does not decide it", string(val))
		}
	}
}

// TestMemoisation verifies queries are cached by configuration and set.
func TestMemoisation(t *testing.T) {
	o := New(explore.Options{})
	c := floodConfig("0", "1")
	if _, err := o.Decidable(context.Background(), c, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Decidable(context.Background(), c, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	s := o.Stats()
	if s.Queries != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want one memo hit", s)
	}
}

// TestSoloDeciding exercises the NST witness search.
func TestSoloDeciding(t *testing.T) {
	o := New(explore.Options{})
	c := floodConfig("0", "1")
	path, val, err := o.SoloDeciding(context.Background(), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if val != V1 {
		t.Fatalf("p1 solo decides %s, want its input 1", string(val))
	}
	end := model.RunPath(c, path)
	if got, ok := end.Decided(1); !ok || got != V1 {
		t.Fatal("solo witness path does not decide")
	}
	// Already-decided processes return immediately.
	if _, val, err := o.SoloDeciding(context.Background(), end, 1); err != nil || val != V1 {
		t.Fatalf("decided process: (%s, %v)", string(val), err)
	}
}

// TestEmptySetRejected covers the error path.
func TestEmptySetRejected(t *testing.T) {
	o := New(explore.Options{})
	if _, err := o.Decidable(context.Background(), floodConfig("0", "1"), nil); err == nil {
		t.Fatal("expected error for empty process set")
	}
}

// TestProfileFloodN2 builds the full valency landscape of the verified n=2
// protocol and checks the FLP/valency laws at every configuration.
func TestProfileFloodN2(t *testing.T) {
	o := New(explore.Options{})
	c := floodConfig("0", "1")
	report, err := o.Profile(context.Background(), "flood(0,1)", c, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.Bivalent == 0 {
		t.Fatal("no bivalent configurations: Proposition 2 should give at least the initial one")
	}
	if report.Zero == 0 || report.One == 0 {
		t.Fatalf("one-sided landscape: %v", report)
	}
	t.Logf("%v", report)

	// Unanimous inputs: the whole landscape must be univalent.
	same, err := o.Profile(context.Background(), "flood(1,1)", floodConfig("1", "1"), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if same.Bivalent != 0 || same.Zero != 0 {
		t.Fatalf("unanimous-input landscape not all 1-univalent: %v", same)
	}
	t.Logf("%v", same)
}

// TestProfileAbsorptionReusesVerdicts pins the profile's oracle-query
// budget on DiskRace n=3: the p-only reachable space is closed under
// p-moves, so the absorption check must answer every successor lookup from
// the classification pass's fingerprint-keyed verdict table — exactly one
// Decidable call per configuration, none for absorption.
func TestProfileAbsorptionReusesVerdicts(t *testing.T) {
	disk := consensus.DiskRace{}
	o := New(explore.Options{Canon: disk})
	c := model.NewConfig(disk, []model.Value{"0", "1", "1"})
	// Advance the pair deterministically before profiling: the landscape
	// from the initial configuration is ~12k configurations (a minute of
	// exhaustive classification); from here it is ~2k, entirely univalent
	// — so the absorption check runs its successor lookups at every single
	// configuration, the maximal workload for the verdict-reuse path.
	for i := 0; i < 14; i++ {
		c = c.StepDet(0)
		c = c.StepDet(1)
	}
	report, err := o.Profile(context.Background(), "diskrace(0,1,1)", c, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.Total() == 0 || report.Configs != report.Total() {
		t.Fatalf("exploration totals not surfaced: Configs=%d, classified %d", report.Configs, report.Total())
	}
	if report.Steps <= report.Configs {
		t.Fatalf("Steps=%d not surfaced (want > Configs=%d for a branching space)", report.Steps, report.Configs)
	}
	if report.Queries != report.Total() {
		t.Fatalf("absorption re-queried the oracle: %d queries for %d configurations (want equal)",
			report.Queries, report.Total())
	}
	if report.SoloQueries == 0 {
		t.Fatal("SoloQueries not surfaced: exhaustive classification must run solo searches")
	}
	t.Logf("%v", report)
}
