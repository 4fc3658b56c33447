// Package core is the front door of the repository: one import that exposes
// the headline operations of the reproduction of Zhu's "A Tight Space Bound
// for Consensus" —
//
//	Attack   — run the paper's covering/valency adversary (Theorem 1)
//	           against a protocol, producing a witness that it uses at
//	           least n-1 registers;
//	Verify   — model-check a protocol's Agreement, Validity and solo
//	           termination by bounded-exhaustive search;
//	Propose  — run the native obstruction-free consensus (DiskRace) on
//	           goroutines;
//	Perturb  — run the Jayanti-Tan-Toueg perturbation adversary against
//	           the single-writer counter (deck part I.1).
//
// Everything here delegates to the specialised packages (internal/adversary,
// internal/check, internal/native, internal/perturb); use those directly
// for the full APIs.
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/native"
	"repro/internal/perturb"
	"repro/internal/valency"
)

// Protocol names accepted by Attack and Verify.
const (
	ProtocolDiskRace    = "diskrace"
	ProtocolFlood       = "flood"
	ProtocolEagerFlood  = "eagerflood"
	ProtocolGreedyFlood = "greedyflood"
	ProtocolCoinFlood   = "coinflood"
)

// Machine resolves a protocol name to its model implementation and the
// exploration options (canonicalisation included) appropriate for it.
func Machine(name string) (model.Machine, explore.Options, error) {
	switch name {
	case ProtocolDiskRace:
		return consensus.DiskRace{}, explore.Options{
			Canon: consensus.DiskRace{},
		}, nil
	case ProtocolFlood:
		return consensus.Flood{}, explore.Options{}, nil
	case ProtocolEagerFlood:
		return consensus.EagerFlood{}, explore.Options{}, nil
	case ProtocolGreedyFlood:
		return consensus.GreedyFlood{}, explore.Options{}, nil
	case ProtocolCoinFlood:
		return consensus.CoinFlood{}, explore.Options{}, nil
	default:
		return nil, explore.Options{}, fmt.Errorf("core: unknown protocol %q", name)
	}
}

// MaxProcesses is the largest process count a run may have: the valency
// oracle keys a process set as a 64-bit mask.
const MaxProcesses = 64

// CheckProcesses rejects a process count m cannot run with: fewer than two
// processes, more than MaxProcesses, or a count m's Init refuses. Some
// machines are built for a fixed n (CoinFlood for exactly two) and panic
// in Init otherwise; the first and last process, on both binary inputs,
// cover every size check the protocols make.
func CheckProcesses(m model.Machine, n int) (err error) {
	if n < 2 || n > MaxProcesses {
		return fmt.Errorf("core: n=%d outside [2,%d]", n, MaxProcesses)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: %s cannot run with n=%d: %v", m.Name(), n, r)
		}
	}()
	for _, pid := range []int{0, n - 1} {
		for _, in := range []model.Value{"0", "1"} {
			m.Init(n, pid, in)
		}
	}
	return nil
}

// Attack runs the Theorem 1 adversary against the named protocol with n
// processes. maxConfigs bounds each exhaustive valency query (0 = default);
// ctx bounds the whole construction in wall-clock time, and a cancelled run
// returns an *adversary.Partial error reporting its progress.
func Attack(ctx context.Context, protocol string, n, maxConfigs int) (*adversary.Theorem1Witness, error) {
	m, opts, err := Machine(protocol)
	if err != nil {
		return nil, err
	}
	if maxConfigs > 0 {
		opts.MaxConfigs = maxConfigs
	}
	engine := adversary.New(valency.New(opts))
	return engine.Theorem1(ctx, m, n)
}

// Verify model-checks the named protocol with n processes over all binary
// input vectors. maxConfigs bounds each exploration (0 = default); when the
// bound binds the report says so rather than over-claiming.
func Verify(ctx context.Context, protocol string, n, maxConfigs int) (*check.Report, error) {
	m, opts, err := Machine(protocol)
	if err != nil {
		return nil, err
	}
	if maxConfigs > 0 {
		opts.MaxConfigs = maxConfigs
	}
	return check.Consensus(ctx, m, n, check.Options{Explore: opts, MaxViolations: 1})
}

// VerifyKSet model-checks the lane-partitioned k-set agreement protocol for
// n processes: at most k distinct decisions (bounded exploration; the lane
// wrapper hides ballots from the canonicaliser).
func VerifyKSet(ctx context.Context, n, k, maxConfigs int) (*check.Report, error) {
	if maxConfigs <= 0 {
		maxConfigs = 100_000
	}
	return check.KSet(ctx, consensus.KSet{K: k}, n, k, check.Options{
		Explore:  explore.Options{MaxConfigs: maxConfigs},
		SkipSolo: true,
	})
}

// Propose runs native obstruction-free consensus among n goroutines with
// the given binary inputs and returns the agreed value.
func Propose(inputs []int) (int, error) {
	n := len(inputs)
	if n == 0 {
		return 0, fmt.Errorf("core: no participants")
	}
	d := native.NewDiskRace(n)
	decided := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for pid := range inputs {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			decided[pid], errs[pid] = d.Propose(pid, inputs[pid])
		}(pid)
	}
	wg.Wait()
	for pid, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("core: p%d: %w", pid, err)
		}
	}
	for pid := 1; pid < n; pid++ {
		if decided[pid] != decided[0] {
			return 0, fmt.Errorf("core: agreement violated: %v", decided)
		}
	}
	return decided[0], nil
}

// Perturb runs the JTT perturbation adversary against the single-writer
// counter with n processes.
func Perturb(n int) (*perturb.Witness, error) {
	return perturb.NewAdversary(perturb.SWCounter{}).Run(n)
}
