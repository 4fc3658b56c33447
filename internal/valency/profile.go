package valency

import (
	"context"
	"fmt"

	"repro/internal/explore"
	"repro/internal/model"
)

// Profile classifies every configuration reachable by p-only executions
// from c according to the valency of p: the quantified version of the
// FLP/valency picture the paper's Section 3.1 builds on. For a correct
// binary consensus protocol the landscape obeys:
//
//   - configurations with a decided process are univalent for that value
//     (Proposition 1(iv)),
//   - univalent regions absorb: successors of a v-univalent configuration
//     are v-univalent,
//   - the initial mixed-input configuration is bivalent (Proposition 2).
//
// ProfileReport records the landscape; Oracle.Profile verifies the three
// laws while building it and errors on any violation, making the profile
// itself another protocol check.
type ProfileReport struct {
	Protocol string
	// Bivalent, Zero and One count configurations by valency of p.
	Bivalent, Zero, One int
	// Decided counts configurations where some process has decided.
	Decided int
	// Configs and Steps are the exploration totals of the p-only
	// reachable space the landscape was built over: distinct
	// configurations and state transitions examined.
	Configs, Steps int
	// Queries and SoloQueries are the oracle calls this profile issued
	// (memoised or not); SoloHits of those solo searches were answered
	// from the memo. Because the p-only space is closed under p-moves,
	// the absorption check reuses the classification pass's verdicts and
	// Queries stays at one per configuration — see TestProfileAbsorptionReusesVerdicts.
	Queries, SoloQueries, SoloHits int
}

// Total returns the number of configurations classified.
func (r ProfileReport) Total() int { return r.Bivalent + r.Zero + r.One }

// String renders the landscape in one line.
func (r ProfileReport) String() string {
	return fmt.Sprintf("%s: %d configurations: %d bivalent, %d 0-univalent, %d 1-univalent (%d with decisions); %d steps, %d valency queries (%d solo, %d memoised)",
		r.Protocol, r.Total(), r.Bivalent, r.Zero, r.One, r.Decided, r.Steps, r.Queries, r.SoloQueries, r.SoloHits)
}

// Profile explores the p-only reachable space of c and classifies every
// configuration, verifying the valency laws along the way.
//
// The absorption law is checked without re-querying the oracle: the p-only
// reachable space is closed under p-moves, so every successor of a kept
// configuration is itself a kept configuration, and its verdict is looked
// up in the classification pass's fingerprint-keyed table. Only when the
// exploration was capped (successors possibly outside the kept set) does
// the check fall back to a fresh oracle query.
func (o *Oracle) Profile(ctx context.Context, name string, c model.Config, p []int) (ProfileReport, error) {
	report := ProfileReport{Protocol: name}
	type entry struct {
		cfg model.Config
		fp  explore.Fingerprint
	}
	statsBefore := o.stats
	var kept []entry
	res, err := explore.Reach(ctx, c, p, o.opts, func(v explore.Visit) bool {
		// Clone: v.Config is arena-backed and only valid during the
		// callback; the profile keeps the whole space for pass 2.
		kept = append(kept, entry{cfg: v.Config.Clone(), fp: o.opts.Fingerprint(v.Config)})
		return true
	})
	if err != nil {
		return report, fmt.Errorf("valency profile: %w", err)
	}
	report.Configs = res.Count
	report.Steps = res.Steps

	// Pass 1: classify every reachable configuration, indexing verdicts by
	// the same fingerprint the visited set and the oracle's memo use.
	verdicts := make(map[explore.Fingerprint]*Verdict, len(kept))
	for _, e := range kept {
		v, err := o.Decidable(ctx, e.cfg, p)
		if err != nil {
			return report, fmt.Errorf("valency profile: %w", err)
		}
		verdicts[e.fp] = v
		decided := e.cfg.DecidedValues()
		if len(decided) > 0 {
			report.Decided++
		}
		switch {
		case v.Bivalent():
			if len(decided) > 0 {
				return report, fmt.Errorf(
					"valency law violated: bivalent configuration with a decision (protocol broken)")
			}
			report.Bivalent++
		case v.Decidable[V0]:
			report.Zero++
		case v.Decidable[V1]:
			report.One++
		default:
			return report, fmt.Errorf("valency law violated: configuration decides nothing")
		}
	}

	// Pass 2: absorption — every successor of a univalent configuration is
	// univalent for the same value. Successor verdicts come from the table
	// built above; the capped fallback is the only path that can query.
	for _, e := range kept {
		val, ok := verdicts[e.fp].Univalent()
		if !ok {
			continue
		}
		for _, mv := range explore.Moves(e.cfg, p) {
			succCfg := model.Apply(e.cfg, mv)
			succ, found := verdicts[o.opts.Fingerprint(succCfg)]
			if !found {
				if !res.Capped {
					return report, fmt.Errorf(
						"valency profile: successor of a kept configuration missing from the p-only space (closure violated)")
				}
				succ, err = o.Decidable(ctx, succCfg, p)
				if err != nil {
					return report, fmt.Errorf("valency profile: %w", err)
				}
			}
			if got, uok := succ.Univalent(); !uok || got != val {
				return report, fmt.Errorf(
					"valency law violated: %s-univalent configuration has a non-%s-univalent successor",
					string(val), string(val))
			}
		}
	}
	report.Queries = o.stats.Queries - statsBefore.Queries
	report.SoloQueries = o.stats.SoloQueries - statsBefore.SoloQueries
	report.SoloHits = o.stats.SoloHits - statsBefore.SoloHits
	return report, nil
}
