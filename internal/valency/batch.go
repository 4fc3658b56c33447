package valency

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"slices"
	"time"

	"repro/internal/checkpoint"
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
// The search depends on the number of candidates. One candidate runs the
// packed, parallel, spillable Reach; at its BFS level boundaries an
// attached checkpointer may snapshot it in flight, and a crash-resumed run
// re-enters it there. Many candidates run one mask BFS over the union of
// their p-only spaces. The adversary's Lemma 1 asks, for each z in a
// bivalent set P, whether P-{z} is still bivalent: n candidate sets whose
// spaces overlap almost entirely. The mask BFS explores the shared space
// once. Every node carries a bitmask of the candidates for which the path
// that reached it is candidate-only; a step by process q propagates the
// parent's mask minus the candidates excluding q. A set bit k is therefore
// a proof that the node's witness path is a candidates[k]-only execution,
// which makes decided values found under bit k certificates for candidate
// k, with replayable witness paths. The mask BFS never snapshots: it is
// budget-bounded and cheap to redo, and a crash-resumed run replays it onto
// the same memoised verdicts.

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
		var configs int
		var err error
		if len(cands) == 1 {
			configs, err = o.exploreDecidable(ctx, outs[0].key, c, cands[0], limit, outs[0].verdict)
		} else {
			configs, err = o.maskSearch(ctx, c, cands, outs, open, limit)
		}
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

// exploreDecidable runs the one-candidate search, an exhaustive p-only
// Reach capped at limit configurations, folding decided values into verdict.
// Values already seeded keep their witnesses; the search stops as soon as
// the verdict is bivalent. It returns the configurations visited and
// Reach's error.
//
// With a checkpointer attached, every BFS level boundary offers an
// in-flight snapshot keyed by (key, limit); and when a loaded snapshot with
// that exact key is pending, the search re-enters at its stored level, with
// the values it had already discovered pre-seeded.
func (o *Oracle) exploreDecidable(ctx context.Context, key queryKey, c model.Config, p []int, limit int, verdict *Verdict) (int, error) {
	opts := o.opts
	opts.MaxConfigs = limit
	witnessIDs := make(map[model.Value]int)
	if o.ckpt != nil {
		opts.Snapshot = func(sn *explore.Snapshotter) {
			o.ckpt.TickQuery(func() *checkpoint.QueryData {
				data, err := sn.Data()
				if err != nil {
					return nil
				}
				return buildQueryData(key, limit, data, witnessIDs)
			})
		}
	}
	if q := o.resume; q != nil && explore.Fingerprint(q.FP) == key.fp && q.Pids == key.pids && q.MaxConfigs == limit {
		o.resume = nil
		opts.ResumeFrom = q
		for _, f := range q.Found {
			val := model.Value(f.Value)
			if !verdict.Decidable[val] {
				verdict.Decidable[val] = true
				witnessIDs[val] = f.ID
			}
		}
	}
	numProcs := c.NumProcesses()
	res, err := explore.Reach(ctx, c, p, opts, func(v explore.Visit) bool {
		// Per-pid Decided probes instead of DecidedValues(): the latter
		// builds a map per visited configuration, which dominated the
		// query's allocations.
		for pid := 0; pid < numProcs; pid++ {
			val, ok := v.Config.Decided(pid)
			if !ok {
				continue
			}
			if !verdict.Decidable[val] {
				verdict.Decidable[val] = true
				witnessIDs[val] = v.ID
			}
		}
		// Both binary values found: executions witnessing them are
		// already recorded, so the query can stop here — for valency,
		// bivalence is maximal knowledge.
		return !verdict.Bivalent()
	})
	o.stats.DeepestLevel = max(o.stats.DeepestLevel, res.Depth)
	for val, id := range witnessIDs {
		path, ok := res.PathTo(id)
		if !ok {
			return res.Count, fmt.Errorf("valency: lost witness for %q", string(val))
		}
		verdict.Witness[val] = path
	}
	return res.Count, err
}

// maskNode is one entry of the mask BFS forest: enough to replay the
// witness path, plus the candidate mask its path is valid for. via is the
// connecting move in its model.PackMove encoding.
type maskNode struct {
	parent int32
	depth  int32
	via    uint32
	mask   uint64
}

// maskSearch runs the many-candidate search: one BFS over the union of the
// open candidates' spaces, stepped through an explore.Expander with every
// node's packed record in a flat arena. It folds decided values into the
// open verdicts, retiring each candidate once it is bivalent, and returns
// the distinct configurations visited; a nil error means the union space
// was exhausted within limit.
func (o *Oracle) maskSearch(ctx context.Context, c model.Config, cands [][]int, outs []outcome, open []int, limit int) (int, error) {
	// allowed[pid] is the set of open candidates whose process set holds
	// pid; union lists the pids some open candidate holds.
	numProcs := c.NumProcesses()
	allowed := make([]uint64, numProcs)
	for bit, i := range open {
		for _, pid := range cands[i] {
			allowed[pid] |= 1 << uint(bit)
		}
	}
	var union []int
	for pid, m := range allowed {
		if m != 0 {
			union = append(union, pid)
		}
	}

	codec := model.NewPackedCodec(c)
	x := explore.NewExpander(codec, o.opts)
	stride := codec.Words()
	root, err := x.Pack(c)
	if err != nil {
		return 0, fmt.Errorf("valency batch root: %w (and %w)", err, explore.ErrCapped)
	}
	arena := slices.Clone(root)
	fp, cfg, err := x.Fingerprint(root)
	if err != nil {
		return 0, fmt.Errorf("valency batch root: %w (and %w)", err, explore.ErrCapped)
	}
	live := uint64(1)<<uint(len(open)) - 1 // candidates still seeking an answer
	seen := map[explore.Fingerprint]uint64{fp: live}
	nodes := []maskNode{{parent: -1, mask: live}}
	// found[bit] maps a decided value to the node certifying it for open
	// candidate bit.
	found := make([]map[model.Value]int32, len(open))
	for bit := range found {
		found[bit] = make(map[model.Value]int32)
	}
	// note folds the decisions of node id's configuration, as decided by
	// any process (Definition 1), into the verdicts of its live candidates.
	note := func(id int32, cfg model.Config) {
		mask := nodes[id].mask & live
		for pid := 0; pid < numProcs && mask != 0; pid++ {
			val, ok := cfg.Decided(pid)
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
				found[bit][val] = id
				if verdict.Bivalent() {
					live &^= 1 << uint(bit)
					mask &^= 1 << uint(bit)
				}
			}
		}
	}

	count := 1
	note(0, cfg)
	err = func() error {
		for lo := 0; lo < len(nodes) && live != 0; lo++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("valency batch cancelled after %d configs: %w (and %w)", count, err, explore.ErrCapped)
			}
			if count >= limit {
				return fmt.Errorf("valency batch hit %d configs: %w", limit, explore.ErrCapped)
			}
			n := nodes[lo]
			mask := n.mask & live
			if mask == 0 {
				continue
			}
			rec := arena[lo*stride : (lo+1)*stride]
			for _, mv := range x.Moves(rec, union) {
				childMask := mask & allowed[mv.Pid]
				if childMask == 0 {
					continue
				}
				child, err := x.Step(rec, mv)
				if err != nil {
					return fmt.Errorf("valency batch step: %w (and %w)", err, explore.ErrCapped)
				}
				fp, cfg, err := x.Fingerprint(child)
				if err != nil {
					return fmt.Errorf("valency batch step: %w (and %w)", err, explore.ErrCapped)
				}
				prev, ok := seen[fp]
				if ok && childMask&^prev == 0 {
					continue
				}
				via, err := model.PackMove(mv)
				if err != nil {
					return fmt.Errorf("valency batch step: %w (and %w)", err, explore.ErrCapped)
				}
				if !ok {
					count++
				}
				seen[fp] = prev | childMask
				id := int32(len(nodes))
				nodes = append(nodes, maskNode{parent: int32(lo), depth: n.depth + 1, via: via, mask: childMask})
				arena = append(arena, child...)
				o.stats.DeepestLevel = max(o.stats.DeepestLevel, int(n.depth)+1)
				note(id, cfg)
				if live == 0 {
					return nil
				}
				if count >= limit {
					return fmt.Errorf("valency batch hit %d configs: %w", limit, explore.ErrCapped)
				}
			}
		}
		return nil
	}()

	// Materialise every found value's witness path, checking that it
	// replays to the decision it certifies.
	for bit, ids := range found {
		verdict := outs[open[bit]].verdict
		for val, id := range ids {
			var path model.Path
			for ; id > 0; id = nodes[id].parent {
				path = append(path, model.UnpackMove(nodes[id].via))
			}
			slices.Reverse(path)
			if !model.RunPath(c, path).DecidedValues()[val] {
				return count, fmt.Errorf("valency batch: witness for %q does not replay", string(val))
			}
			verdict.Witness[val] = path
		}
	}
	return count, err
}
