package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/model"
)

// layerMetrics computes every per-layer metric of a traced pass: the
// pack/hash sample, the engine counters in the pass's registry, the span
// and event totals in its trace, the tracing overhead against the
// untraced pass, and whatever the workload measured itself. A layer the
// workload does not exercise reads 0.
func (b *bench) layerMetrics(tp, untraced *pass) (map[string]float64, error) {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	var err error
	if out["model.pack_ns"], out["explore.hash_ns"], err = packHash(b.ctx, b.sz.sampleSize); err != nil {
		return nil, fmt.Errorf("pack/hash sample: %w", err)
	}

	ops := float64(len(tp.ops))
	reg := tp.scope.Registry().Snapshot()
	num := func(name string) float64 {
		v, _ := reg[name].(int64)
		return float64(v)
	}
	hits, misses := num("explore_stepper_memo_hits"), num("explore_stepper_memo_misses")
	out["model.stepper_hit_ratio"] = ratio(hits, hits+misses)
	out["explore.fpset_probe_p99"] = tp.scope.Histogram("explore_fpset_probe_len", nil).Quantile(0.99)
	out["explore.arena_merge_mb"] = ratio(num("explore_arena_merge_bytes"), ops) / 1e6
	out["explore.arena_peak_mb"] = num("explore_arena_peak_words") * 8 / 1e6
	out["valency.queries"] = ratio(num("valency_queries"), ops)
	out["valency.memo_hit_ratio"] = ratio(num("valency_memo_hits"), num("valency_queries"))
	out["valency.configs"] = ratio(num("valency_configs"), ops)

	ts := summarize(parseTrace(tp.trace.Bytes()))
	out["explore.configs"] = ratio(float64(ts.fresh), ops)
	out["explore.fresh_ratio"] = ratio(float64(ts.fresh), float64(ts.fresh+ts.dedup))
	var queries []float64
	for _, span := range []string{"decidable", "batch", "solo"} {
		durs := ts.durations["valency_"+span]
		out["valency."+span+"_s"] = ratio(sum(durs), ops)
		queries = append(queries, durs...)
	}
	out["valency.query_us_p50"] = 1e6 * percentile(queries, 0.5)
	out["valency.query_us_p99"] = 1e6 * percentile(queries, 0.99)
	for _, span := range []string{"theorem1", "lemma1", "lemma2", "lemma3", "lemma4"} {
		out["adversary."+span+"_self_s"] = ratio(ts.self[span], ops)
	}
	out["adversary.lemma4_rounds"] = ratio(float64(ts.events["lemma4_round"]), ops)
	out["checkpoint.writes"] = ratio(float64(ts.events["checkpoint_write"]), ops)
	out["checkpoint.mb"] = ratio(float64(ts.ckptBytes), ops) / 1e6
	out["obs.overhead_frac"] = ratio(median(tp.ops), median(untraced.ops)) - 1

	for k, v := range tp.layers {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("workload measured %q, which is not a per-layer metric", k)
		}
		out[k] = v
	}
	return out, nil
}

// packHashWindow is how long each of PackTo and Fingerprint is timed.
const packHashWindow = 200 * time.Millisecond

// packHash times PackedCodec.PackTo into a warm codec and
// Fingerprinter.Fingerprint, per configuration, over the first n
// configurations of DiskRace n=5's reachable space.
func packHash(ctx context.Context, n int) (packNs, hashNs float64, err error) {
	m, opts, err := core.Machine(core.ProtocolDiskRace)
	if err != nil {
		return 0, 0, err
	}
	root := model.NewConfig(m, []model.Value{"0", "1", "1", "1", "1"})
	opts.Workers = 1
	opts.MaxConfigs = n
	var cfgs []model.Config
	_, rerr := explore.Reach(ctx, root, []int{0, 1, 2, 3, 4}, opts, func(v explore.Visit) bool {
		cfgs = append(cfgs, v.Config.Clone())
		return true
	})
	if len(cfgs) < n-1 {
		return 0, 0, fmt.Errorf("sampled %d of %d configs: %v", len(cfgs), n, rerr)
	}
	codec := model.NewPackedCodec(root)
	dst := make([]uint64, codec.Words())
	for _, c := range cfgs { // intern every state and value first
		if err := codec.PackTo(dst, c); err != nil {
			return 0, 0, err
		}
	}
	perConfig := func(op func(model.Config)) float64 {
		ops := 0
		start := time.Now()
		for time.Since(start) < packHashWindow {
			for _, c := range cfgs {
				op(c)
			}
			ops += len(cfgs)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	packNs = perConfig(func(c model.Config) { _ = codec.PackTo(dst, c) })
	fpr := opts.NewFingerprinter()
	hashNs = perConfig(func(c model.Config) { _ = fpr.Fingerprint(c) })
	return packNs, hashNs, nil
}
