package consensus

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/explore"
	"repro/internal/model"
)

// diskOpts is the exploration configuration for DiskRace: the ballot
// canonicalisation is what makes its unbounded state space exhaustible.
func diskOpts() explore.Options {
	return explore.Options{Canon: DiskRace{}}
}

// TestDiskRaceAgreement model-checks DiskRace over the canonical
// (ballot-renumbered) quotient of its configuration space: exhaustively for
// n=2, bounded (the quotient is finite but very large) for n=3. Safety at
// all n rests on the Disk Paxos proof; these checks guard the
// implementation, and TestDiskRaceSoloTermination covers obstruction
// freedom.
func TestDiskRaceAgreement(t *testing.T) {
	report, err := check.Consensus(context.Background(), DiskRace{}, 2, check.Options{Explore: diskOpts()})
	if err != nil {
		t.Fatalf("n=2: %v", err)
	}
	if !report.OK() {
		t.Fatalf("n=2: %v", report)
	}
	t.Logf("%v", report)

	if testing.Short() {
		t.Skip("n=3 bounded check skipped in -short mode")
	}
	opts := diskOpts()
	opts.MaxConfigs = 150_000 // per input vector; bounded, not exhaustive
	report, err = check.Consensus(context.Background(), DiskRace{}, 3, check.Options{
		Explore:  opts,
		SkipSolo: true, // covered by TestDiskRaceSoloTermination
	})
	if err != nil {
		t.Fatalf("n=3: %v", err)
	}
	if !report.OK() {
		t.Fatalf("n=3: %v", report)
	}
	t.Logf("%v (bounded)", report)
}

// TestDiskRaceSoloTermination samples reachable configurations at n=3 and
// verifies every process decides when run alone (obstruction freedom).
func TestDiskRaceSoloTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := []model.Value{"0", "1", "1"}
	for trial := 0; trial < 300; trial++ {
		c := model.NewConfig(DiskRace{}, inputs)
		for step := 0; step < rng.Intn(60); step++ {
			c = c.StepDet(rng.Intn(3))
		}
		for pid := 0; pid < 3; pid++ {
			d := c
			decided := false
			for step := 0; step < 200; step++ {
				if _, ok := d.Decided(pid); ok {
					decided = true
					break
				}
				d = d.StepDet(pid)
			}
			if !decided {
				t.Fatalf("trial %d: p%d does not decide solo", trial, pid)
			}
		}
	}
}

// TestDiskRaceSoloFast verifies the obstruction-freedom bound claimed in the
// docs: a solo run from the initial configuration decides with at most one
// abort.
func TestDiskRaceSoloFast(t *testing.T) {
	for n := 2; n <= 16; n++ {
		inputs := make([]model.Value, n)
		for i := range inputs {
			inputs[i] = "0"
		}
		c := model.NewConfig(DiskRace{}, inputs)
		steps := 0
		for {
			if v, ok := c.Decided(n - 1); ok {
				if v != "0" {
					t.Fatalf("n=%d: decided %q, want 0 (validity)", n, string(v))
				}
				break
			}
			if steps > 6*n+10 {
				t.Fatalf("n=%d: no solo decision within %d steps", n, steps)
			}
			c = c.StepDet(n - 1)
			steps++
		}
		t.Logf("n=%d: solo decision in %d steps", n, steps)
	}
}

// TestDiskRaceCanonicalBisimulation property-checks the soundness argument
// of CanonicalKey: shifting every ballot round of a reachable configuration
// by a constant yields the same canonical key, and running the shifted and
// unshifted configurations in lockstep under random schedules preserves
// canonical keys and decided values step by step.
func TestDiskRaceCanonicalBisimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inputs := []model.Value{"1", "0", "1"}
	for trial := 0; trial < 200; trial++ {
		c := model.NewConfig(DiskRace{}, inputs)
		for step := 0; step < rng.Intn(80); step++ {
			c = c.StepDet(rng.Intn(3))
		}
		shift := 1 + rng.Intn(5)
		d := shiftRounds(c, shift)
		if got, want := (DiskRace{}).CanonicalKey(d), (DiskRace{}).CanonicalKey(c); got != want {
			t.Fatalf("trial %d: canonical keys diverge after shift %d:\n got %q\nwant %q",
				trial, shift, got, want)
		}
		// Lockstep: same schedule from both, canonical keys must track.
		for step := 0; step < 30; step++ {
			pid := rng.Intn(3)
			c = c.StepDet(pid)
			d = d.StepDet(pid)
			if (DiskRace{}).CanonicalKey(d) != (DiskRace{}).CanonicalKey(c) {
				t.Fatalf("trial %d: lockstep divergence at step %d", trial, step)
			}
			for q := 0; q < 3; q++ {
				vc, okc := c.Decided(q)
				vd, okd := d.Decided(q)
				if okc != okd || vc != vd {
					t.Fatalf("trial %d: decision divergence for p%d", trial, q)
				}
			}
		}
	}
}

// shiftRounds adds delta to every positive ballot round in a DiskRace
// configuration, registers and local states alike. It is a test-only tool
// for producing distinct-but-bisimilar configurations.
func shiftRounds(c model.Config, delta int) model.Config {
	bump := func(b Ballot) Ballot {
		if b.IsZero() {
			return b
		}
		return Ballot{K: b.K + delta, Pid: b.Pid}
	}
	// Rebuild via a fresh config of the same machine, then overwrite all
	// states and registers through the public Step API is impossible;
	// instead reconstruct states directly (same package).
	n := c.NumProcesses()
	inputs := make([]model.Value, n)
	for i := range inputs {
		inputs[i] = c.State(i).(diskState).input
	}
	out := model.NewConfig(DiskRace{}, inputs)
	states := make([]model.State, n)
	for i := 0; i < n; i++ {
		s := c.State(i).(diskState)
		s.ballot = bump(s.ballot)
		s.ownBal = bump(s.ownBal)
		if s.maxK > 0 {
			s.maxK += delta
		}
		s.maxBal = bump(s.maxBal)
		states[i] = s
	}
	regs := make([]model.Value, c.NumRegisters())
	for r := range regs {
		if c.Register(r) == model.Bottom {
			regs[r] = model.Bottom
			continue
		}
		block := decodeBlock(c.Register(r))
		block.Mbal = bump(block.Mbal)
		block.Bal = bump(block.Bal)
		regs[r] = block.encode()
	}
	return model.RebuildConfig(out, states, regs)
}
