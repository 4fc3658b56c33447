package valency

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"time"

	"repro/internal/explore"
	"repro/internal/model"
)

// Valency queries: one path for one candidate process set or many.
//
// Every query — Decidable, DecideBatch, ProbeBivalentBatch — runs the same
// sequence per candidate: memo lookup, solo seeding, one shared search for
// whatever is still open, then the outcome rules. A candidate certified
// bivalent is exact however the search ended (decidable sets only grow and
// {0,1} is maximal); a candidate whose space the search exhausted within
// budget is exact too. Both are memoised as full verdicts. A budget-capped
// miss is inconclusive and leaves the memo untouched, so a later exhaustive
// query is unimpeded.
//
// The search is one explore.ReachSets over the open candidates' process
// sets. The adversary's Lemma 1 asks, for each z in a bivalent set P,
// whether P-{z} is still bivalent: n candidate sets whose spaces overlap
// almost entirely, explored once. Every node carries a bitmask of the
// candidates for which the path that reached it is candidate-only, so a
// decided value found under bit k is a certificate for candidate k, with a
// replayable witness path; every witness is replayed before it is kept.
// With one open candidate the search is a plain packed, parallel Reach.
// An attached checkpointer is offered a save only after the whole query,
// so a crash-resumed run replays finished queries from the memo and runs
// the interrupted one again from its start.

// maxBatchCandidates bounds one batch (the mask is a uint64).
const maxBatchCandidates = 64

// outcome is one candidate's answer. err is nil when the verdict is exact;
// otherwise it is the cap that stopped the search short, and the verdict
// holds only what was found before it did.
type outcome struct {
	key     queryKey
	verdict *Verdict
	err     error
}

// exact returns the outcome's verdict, or its cap wrapped for candidate p.
func (out *outcome) exact(p []int) (*Verdict, error) {
	if out.err != nil {
		return nil, fmt.Errorf("valency query |P|=%d: %w", len(p), out.err)
	}
	return out.verdict, nil
}

// Decidable computes the set of values the process set p can decide from c
// (Definition 1), with witness executions. p must be non-empty and sorted
// (use model.PidList / model.Without to build process sets). It errors,
// wrapping explore.ErrCapped, if the oracle's cap binds first.
func (o *Oracle) Decidable(ctx context.Context, c model.Config, p []int) (*Verdict, error) {
	outs, err := o.query(ctx, c, [][]int{p}, 0)
	if err != nil {
		return nil, err
	}
	return outs[0].exact(p)
}

// DecideBatch computes Decidable for every candidate process set in one
// shared search over the union of their p-only spaces. It is exact: if the
// oracle's configuration cap binds before some candidate is resolved, it
// errors like Decidable would.
func (o *Oracle) DecideBatch(ctx context.Context, c model.Config, cands [][]int) ([]*Verdict, error) {
	outs, err := o.query(ctx, c, cands, 0)
	if err != nil {
		return nil, err
	}
	verdicts := make([]*Verdict, len(outs))
	for i := range outs {
		if verdicts[i], err = outs[i].exact(cands[i]); err != nil {
			return nil, err
		}
	}
	return verdicts, nil
}

// ProbeBivalentBatch asks only whether each candidate is bivalent from c,
// spending at most budget configurations on one shared search (0 means the
// oracle's full cap). results[i] is true iff candidates[i] was certified
// bivalent; false means either an exact refutation (memoised) or an
// inconclusive budget miss (not memoised), NOT "univalent".
//
// The probe is what makes bivalence's asymmetry exploitable: the
// adversary's Lemma 1 needs only *some* process whose removal leaves a
// bivalent set, and finding one costs two solo certificates instead of
// exhausting a |P|-1 space.
func (o *Oracle) ProbeBivalentBatch(ctx context.Context, c model.Config, cands [][]int, budget int) ([]bool, error) {
	outs, err := o.query(ctx, c, cands, budget)
	if err != nil {
		return nil, err
	}
	results := make([]bool, len(outs))
	for i := range outs {
		results[i] = outs[i].verdict.Bivalent()
	}
	return results, nil
}

// query resolves every candidate process set of a valency query; budget <= 0
// means the oracle's full cap. It errors on an invalid candidate, on
// cancellation before every open candidate is certified, and on a search
// error that is not a cap (a lost or non-replaying witness); a capped
// search instead leaves the affected outcomes inexact.
func (o *Oracle) query(ctx context.Context, c model.Config, cands [][]int, budget int) ([]outcome, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("valency: empty candidate batch")
	}
	if len(cands) > maxBatchCandidates {
		return nil, fmt.Errorf("valency: batch of %d candidates exceeds %d", len(cands), maxBatchCandidates)
	}
	outs := make([]outcome, len(cands))
	var open []int
	for i, p := range cands {
		if len(p) == 0 {
			return nil, fmt.Errorf("valency: empty process set")
		}
		o.stats.Queries++
		o.metrics.queries.Add(1)
		key, err := o.queryKey(c, p)
		if err != nil {
			return nil, err
		}
		out := &outs[i]
		out.key = key
		if v, ok := o.memo.verdicts[key]; ok {
			o.stats.Hits++
			o.metrics.hits.Add(1)
			out.verdict = v
			o.probeOutcome(p, "memo", v.Bivalent())
			continue
		}
		// Solo certificates first: SoloDeciding is memoised per (config,
		// pid) and every pid recurs in most candidates, so seeding a whole
		// batch costs at most one tiny solo search per process.
		out.verdict = newVerdict()
		if err := o.seedSolo(ctx, c, p, out.verdict); err != nil {
			return nil, err
		}
		if out.verdict.Bivalent() {
			o.memo.verdicts[key] = out.verdict
			o.probeOutcome(p, "solo-certificate", true)
			continue
		}
		open = append(open, i)
	}
	if len(open) > 0 {
		limit := effectiveMax(o.opts)
		if budget > 0 && budget < limit {
			limit = budget
		}
		span := "valency_batch"
		if len(cands) == 1 {
			span = "valency_decidable"
		}
		sp := o.opts.Obs.StartSpan(span, slog.Int("candidates", len(open)))
		start := time.Now()
		configs, err := o.search(ctx, c, cands, outs, open, limit)
		o.stats.Configs += configs
		o.metrics.configs.Add(int64(configs))
		o.metrics.queryConfigs.Observe(int64(configs))
		o.metrics.queryUs.Observe(time.Since(start).Microseconds())
		sp.End(slog.Int("configs", configs), slog.Bool("exhausted", err == nil))
		if err != nil && !errors.Is(err, explore.ErrCapped) {
			return nil, fmt.Errorf("valency query: %w", err)
		}
		for _, i := range open {
			out := &outs[i]
			switch {
			case out.verdict.Bivalent():
				o.memo.verdicts[out.key] = out.verdict
				o.probeOutcome(cands[i], "search-certificate", true)
			case err == nil:
				o.memo.verdicts[out.key] = out.verdict
				o.probeOutcome(cands[i], "exhausted", false)
			case ctx.Err() != nil:
				return nil, fmt.Errorf("valency query |P|=%d: %w", len(cands[i]), err)
			default:
				out.err = err
				o.probeOutcome(cands[i], "inconclusive", false)
			}
		}
	}
	o.ckpt.Tick()
	return outs, nil
}

// effectiveMax is the cap Reach will actually apply under opts, the
// starting point of every query's limit.
func effectiveMax(opts explore.Options) int {
	if opts.MaxConfigs <= 0 {
		return explore.DefaultMaxConfigs
	}
	return opts.MaxConfigs
}

// search runs one explore.ReachSets over the open candidates' process
// sets, capped at limit configurations. It folds the values decided at
// every node into the verdicts of the node's open candidates, closing each
// candidate once it is bivalent; values already seeded keep their
// witnesses. It returns the distinct configurations visited and
// ReachSets' error: nil means the union space was exhausted within limit.
func (o *Oracle) search(ctx context.Context, c model.Config, cands [][]int, outs []outcome, open []int, limit int) (int, error) {
	opts := o.opts
	opts.MaxConfigs = limit
	sets := make([][]int, len(open))
	// found[bit] maps a decided value to the node certifying it for open
	// candidate bit.
	found := make([]map[model.Value]int, len(open))
	for bit, i := range open {
		sets[bit] = cands[i]
		found[bit] = make(map[model.Value]int)
	}
	live := ^uint64(0) >> (64 - len(open))
	numProcs := c.NumProcesses()
	res, err := explore.ReachSets(ctx, c, sets, opts, func(v explore.Visit) uint64 {
		// Per-pid Decided probes instead of DecidedValues(): the latter
		// builds a map per visited configuration.
		mask := v.Mask & live
		for pid := 0; pid < numProcs && mask != 0; pid++ {
			val, ok := v.Config.Decided(pid)
			if !ok {
				continue
			}
			for m := mask; m != 0; m &= m - 1 {
				bit := bits.TrailingZeros64(m)
				verdict := outs[open[bit]].verdict
				if verdict.Decidable[val] {
					continue
				}
				verdict.Decidable[val] = true
				found[bit][val] = v.ID
				if verdict.Bivalent() {
					live &^= 1 << uint(bit)
					mask &^= 1 << uint(bit)
				}
			}
		}
		return live
	})
	o.stats.DeepestLevel = max(o.stats.DeepestLevel, res.Depth)
	// Materialise every found value's witness path, checking that it
	// replays to the decision it certifies.
	for bit, ids := range found {
		verdict := outs[open[bit]].verdict
		for val, id := range ids {
			path, ok := res.PathTo(id)
			if !ok {
				return res.Count, fmt.Errorf("valency: lost witness for %q", string(val))
			}
			if !model.RunPath(c, path).DecidedValues()[val] {
				return res.Count, fmt.Errorf("valency: witness for %q does not replay", string(val))
			}
			verdict.Witness[val] = path
		}
	}
	return res.Count, err
}
