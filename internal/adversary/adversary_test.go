package adversary

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/valency"
)

func newEngine(opts explore.Options) *Engine {
	return New(valency.New(opts))
}

func diskEngine() *Engine {
	return newEngine(explore.Options{
		Canon: consensus.DiskRace{},
	})
}

func allPids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestInitialBivalentFlood verifies Proposition 2 on the n=2 Flood protocol.
func TestInitialBivalentFlood(t *testing.T) {
	e := newEngine(explore.Options{})
	c, err := e.InitialBivalent(context.Background(), consensus.Flood{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NumProcesses(); got != 2 {
		t.Fatalf("NumProcesses = %d, want 2", got)
	}
}

// TestInitialBivalentDiskRace verifies Proposition 2 on DiskRace for
// n = 2, 3, 4.
func TestInitialBivalentDiskRace(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		e := diskEngine()
		if _, err := e.InitialBivalent(context.Background(), consensus.DiskRace{}, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestTheorem1FloodN2 runs the n=2 case of the theorem against the verified
// finite-state protocol.
func TestTheorem1FloodN2(t *testing.T) {
	e := newEngine(explore.Options{})
	w, err := e.Theorem1(context.Background(), consensus.Flood{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Registers < 1 {
		t.Fatalf("witnessed %d registers, want >= 1", w.Registers)
	}
	t.Logf("%v", w)
}

// TestTheorem1DiskRace is experiment E1's core: the covering/valency
// adversary forces DiskRace to exhibit n-1 distinct registers.
func TestTheorem1DiskRace(t *testing.T) {
	sizes := []int{2, 3}
	for _, n := range sizes {
		e := diskEngine()
		w, err := e.Theorem1(context.Background(), consensus.DiskRace{}, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if w.Registers < n-1 {
			t.Fatalf("n=%d: witnessed %d registers, want >= %d", n, w.Registers, n-1)
		}
		t.Logf("%v", w)
		t.Logf("oracle: %+v", w.OracleStats)
	}
}

// TestLemma1DiskRace checks Lemma 1 standalone at n=3: it yields a process z
// and execution φ with P-{z} bivalent afterwards (the bivalence is verified
// inside Lemma1; here we check the interface contract).
func TestLemma1DiskRace(t *testing.T) {
	e := diskEngine()
	c, err := e.InitialBivalent(context.Background(), consensus.DiskRace{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	phi, z, err := e.Lemma1(context.Background(), c, allPids(3))
	if err != nil {
		t.Fatal(err)
	}
	if z < 0 || z > 2 {
		t.Fatalf("z = %d out of range", z)
	}
	set := model.PidSet(allPids(3))
	if !phi.OnlyBy(set) {
		t.Fatalf("φ contains steps outside P: %v", phi)
	}
	t.Logf("|φ| = %d, z = p%d", len(phi), z)
}

// TestLemma2RequiresCover checks the Lemma 2 error path: a process whose
// solo run writes only covered registers cannot exist for a correct
// protocol, but the cover-set precondition must be enforced.
func TestLemma2RequiresCover(t *testing.T) {
	e := newEngine(explore.Options{})
	c, err := e.InitialBivalent(context.Background(), consensus.Flood{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// p1 is poised to read in the initial configuration, so {p1} is not a
	// covering set.
	if _, _, err := e.Lemma2(context.Background(), c, []int{1}, 0); err == nil {
		t.Fatal("expected an error for a non-covering set")
	}
}

// TestTheorem1CatchesBrokenProtocol documents the adversary's behaviour on a
// protocol that is not a consensus protocol: the constructions may fail with
// an explicit violation error or may still terminate (the proof's guarantees
// are vacuous without Agreement), but they must not hang or panic.
func TestTheorem1CatchesBrokenProtocol(t *testing.T) {
	e := newEngine(explore.Options{})
	w, err := e.Theorem1(context.Background(), consensus.EagerFlood{}, 3)
	if err != nil {
		t.Logf("adversary rejected eagerflood: %v", err)
		return
	}
	t.Logf("adversary terminated on eagerflood with %d registers (guarantee vacuous)", w.Registers)
}

// TestEngineErrorPaths covers the guard rails of every construction.
func TestEngineErrorPaths(t *testing.T) {
	e := diskEngine()
	c, err := e.InitialBivalent(context.Background(), consensus.DiskRace{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.InitialBivalent(context.Background(), consensus.DiskRace{}, 1); err == nil {
		t.Fatal("InitialBivalent accepted n=1")
	}
	if _, _, err := e.Lemma1(context.Background(), c, []int{0, 1}); err == nil {
		t.Fatal("Lemma1 accepted |P|=2")
	}
	if _, _, err := e.Lemma3(context.Background(), c, allPids(3), nil); err == nil {
		t.Fatal("Lemma3 accepted empty covering set")
	}
	// After its phase-1 write, a DiskRace process is poised to read, so
	// {p0} is no longer a covering set.
	stepped := c.StepDet(0)
	if _, _, err := e.Lemma3(context.Background(), stepped, allPids(3), []int{0}); err == nil {
		t.Fatal("Lemma3 accepted a non-covering (reading) process")
	}
	if _, err := e.Lemma4(context.Background(), c, []int{0}); err == nil {
		t.Fatal("Lemma4 accepted |P|=1")
	}
}

// TestLemma3OnRealCover drives DiskRace until a process covers a register
// and exercises Lemma 3 standalone.
func TestLemma3OnRealCover(t *testing.T) {
	e := diskEngine()
	initial, err := e.InitialBivalent(context.Background(), consensus.DiskRace{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Initially every DiskRace process is poised on its phase-1 write, so
	// {p2} is a covering set and {p0,p1} must be bivalent.
	phi, q, err := e.Lemma3(context.Background(), initial, allPids(3), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 && q != 1 {
		t.Fatalf("critical process p%d not in Q", q)
	}
	set := model.PidSet([]int{0, 1})
	if !phi.OnlyBy(set) {
		t.Fatalf("φ not Q-only: %v", phi)
	}
	t.Logf("|φ|=%d, q=p%d", len(phi), q)
}

// TestLemma4NotBivalent rejects a univalent starting set.
func TestLemma4NotBivalent(t *testing.T) {
	e := diskEngine()
	inputs := []model.Value{"1", "1", "1"}
	c := model.NewConfig(consensus.DiskRace{}, inputs)
	if _, err := e.Lemma4(context.Background(), c, allPids(3)); err == nil {
		t.Fatal("Lemma4 accepted a univalent configuration (all inputs equal)")
	}
}

// TestLemma3BivalentCoverDeterministic repeats a Lemma 3 construction
// whose covering set R is bivalent from cβ, where the lemma steers by
// Verdict.Any's tie-break instead of a forced value. The case is DiskRace
// n=4 with inputs 0,1,0,1 and R = {p0,p1}: every DiskRace process starts
// poised on its first write, and after the block write β either of p0 and
// p1 can still decide. Two runs in one process, each on a fresh oracle,
// must return byte-identical witnesses, and the lemma's conclusion,
// R∪{q} bivalent from cφβ, must hold.
func TestLemma3BivalentCoverDeterministic(t *testing.T) {
	ctx := context.Background()
	c := model.NewConfig(consensus.DiskRace{}, []model.Value{"0", "1", "0", "1"})
	r := []int{0, 1}
	beta := model.MovesOf(model.BlockWrite(r))
	vr, err := diskEngine().Oracle().Decidable(ctx, model.RunPath(c, beta), r)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Decidable[valency.V0] || !vr.Decidable[valency.V1] {
		t.Fatalf("R=%v decides only %v from cβ; the case no longer exercises a bivalent R", r, vr.Decidable)
	}
	witness := func() string {
		e := diskEngine()
		phi, q, err := e.Lemma3(ctx, c, allPids(4), r)
		if err != nil {
			t.Fatal(err)
		}
		cphi := model.RunPath(c, phi)
		biv, err := e.Oracle().Bivalent(ctx, model.RunPath(cphi, beta), append([]int{q}, r...))
		if err != nil {
			t.Fatal(err)
		}
		if !biv {
			t.Fatalf("R∪{p%d} not bivalent from cφβ", q)
		}
		return fmt.Sprintf("phi=%v q=%d\n%s\n", phi, q, cphi.Key())
	}
	first, second := witness(), witness()
	if first != second {
		t.Fatalf("Lemma 3 witnesses differ between runs:\n%s\n%s", first, second)
	}
	t.Logf("%s", first)
}
