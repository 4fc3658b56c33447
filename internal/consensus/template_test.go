package consensus

import (
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/model"
)

// fingerprintChecker holds, for each configuration it is shown, the three
// fingerprints the engine must agree on: the packed path (an Expander over
// a codec keyed like opts), Options.Fingerprint on the Config path, and
// KeyFingerprint of the string reference key — CanonicalKey under DiskRace,
// Config.Key otherwise.
type fingerprintChecker struct {
	x   *explore.Expander
	fpr *explore.Fingerprinter
	ref func(model.Config) string
}

func newFingerprintChecker(root model.Config, canon model.Canon) *fingerprintChecker {
	opts := explore.Options{Canon: canon}
	ref := model.Config.Key
	if canon != nil {
		ref = DiskRace{}.CanonicalKey
	}
	return &fingerprintChecker{
		x:   explore.NewExpander(model.NewCanonCodec(root, canon), opts),
		fpr: opts.NewFingerprinter(),
		ref: ref,
	}
}

// check compares the three fingerprints of record rec, given its packed
// one.
func (fc *fingerprintChecker) check(rec []uint64, packed explore.Fingerprint) error {
	c, err := fc.x.Unpack(rec)
	if err != nil {
		return err
	}
	ref := fc.ref(c)
	want := explore.KeyFingerprint([]byte(ref))
	if config := fc.fpr.Fingerprint(c); packed != want || config != want {
		return fmt.Errorf("packed %x, Config path %x, reference %x (key %q)", packed, config, want, ref)
	}
	return nil
}

// checkRecord is check for a record whose packed fingerprint is not yet
// known.
func (fc *fingerprintChecker) checkRecord(rec []uint64) error {
	packed, err := fc.x.Fingerprint(rec)
	if err != nil {
		return err
	}
	return fc.check(rec, packed)
}

// sweep checks every configuration reachable from root in the order
// Reach visits them at one worker, up to limit configurations, and
// returns how many it checked. It steps packed records through the
// Expander as the engine does, so the packed path sees the engine's own
// records, and it keeps only the frontier, not a node forest.
func sweep(t *testing.T, root model.Config, canon model.Canon, limit int) int {
	t.Helper()
	fc := newFingerprintChecker(root, canon)
	pids := make([]int, root.NumProcesses())
	for i := range pids {
		pids[i] = i
	}
	seen := explore.NewLocalFPSet()
	visit := func(rec []uint64) bool {
		fp, err := fc.x.Fingerprint(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !seen.Add(fp) {
			return false
		}
		if err := fc.check(rec, fp); err != nil {
			t.Fatalf("config %d: %v", seen.Len(), err)
		}
		return true
	}
	rec, err := fc.x.Pack(root)
	if err != nil {
		t.Fatal(err)
	}
	visit(rec)
	level := append([]uint64(nil), rec...)
	for stride := len(rec); len(level) > 0 && seen.Len() < limit; {
		var next []uint64
		for i := 0; i < len(level) && seen.Len() < limit; i += stride {
			parent := level[i : i+stride]
			for _, m := range fc.x.Moves(parent, pids) {
				child, err := fc.x.Step(parent, m)
				if err != nil {
					t.Fatal(err)
				}
				if visit(child) {
					next = append(next, child...)
					if seen.Len() >= limit {
						break
					}
				}
			}
		}
		level = next
	}
	return seen.Len()
}

// TestTemplateFingerprintsMatchReference is the bit-identity contract of
// template fingerprints: the packed path, the Config path and the string
// reference agree on every reachable configuration of every protocol in
// this package at n ≤ 4 within the default configuration cap, on the
// first 200,000 configurations of DiskRace n=5, and on a DiskRace
// configuration whose rounds reach 64, which no packed template holds.
func TestTemplateFingerprintsMatchReference(t *testing.T) {
	machines := []struct {
		m     model.Machine
		canon model.Canon
	}{
		{DiskRace{}, DiskRace{}},
		{Flood{}, nil},
		{EagerFlood{}, nil},
		{GreedyFlood{}, nil},
		{CoinFlood{}, nil},
		{AdoptCommit{}, nil},
		{SwapPair{}, nil},
		{KSet{K: 2}, nil},
	}
	limit, limit5 := explore.DefaultMaxConfigs, 200_000
	if testing.Short() || raceEnabled {
		limit, limit5 = 100_000, 20_000
	}
	for _, tc := range machines {
		for n := 2; n <= 4; n++ {
			root, ok := rootOf(tc.m, n)
			if !ok {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", tc.m.Name(), n), func(t *testing.T) {
				t.Parallel()
				t.Logf("%d configurations", sweep(t, root, tc.canon, limit))
			})
		}
	}
	t.Run("diskrace/n=5", func(t *testing.T) {
		t.Parallel()
		root, _ := rootOf(DiskRace{}, 5)
		if got := sweep(t, root, DiskRace{}, limit5); got < limit5 {
			t.Fatalf("checked %d configurations, want %d", got, limit5)
		}
	})
	t.Run("diskrace/round64", func(t *testing.T) {
		root, _ := rootOf(DiskRace{}, 3)
		c := root
		for _, pid := range []int{0, 1, 2, 0, 1, 2, 0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1} {
			c = c.StepDet(pid)
		}
		fc := newFingerprintChecker(root, DiskRace{})
		for _, shift := range []int{0, 62, 63, 64, 200} {
			rec, err := fc.x.Pack(shiftRounds(c, shift))
			if err != nil {
				t.Fatal(err)
			}
			if err := fc.checkRecord(rec); err != nil {
				t.Fatalf("shift %d: %v", shift, err)
			}
		}
	})
}

// rootOf returns m's initial configuration for n processes on inputs
// 0,1,1,…, or false when m does not run with n processes.
func rootOf(m model.Machine, n int) (c model.Config, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	inputs := make([]model.Value, n)
	for i := range inputs {
		inputs[i] = "1"
	}
	inputs[0] = "0"
	return model.NewConfig(m, inputs), true
}
