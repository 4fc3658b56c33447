package explore

import (
	"hash/fnv"

	"repro/internal/model"
)

// The reference implementations the engine is held against. They live
// here, not in the package proper, because nothing in production runs
// them: each is the plainest possible form of what the engine computes
// fast.

// ConfigKey returns the state identity of c under these options as a
// string: the bytes model.AppendKey renders under Canon, which are
// Config.Key's when Canon is nil.
func (o Options) ConfigKey(c model.Config) string {
	if o.Canon == nil {
		return c.Key()
	}
	var ks model.KeyScratch
	return string(model.AppendKey(nil, o.Canon, c, &ks))
}

// fingerprintOf digests an already-materialised key string. It is the
// reference form of hasher.fingerprint; the rendering path must produce
// identical fingerprints (TestStreamingKeysMatchStringKeys).
func fingerprintOf(key string) Fingerprint {
	return mix128([]byte(key))
}

// fingerprintFNV128 is the retired FNV-1a digest, kept as an independent
// reference implementation: the migration tests run it alongside mix128
// over the same key populations and require both to be injective, so a
// defect in the new mix cannot hide behind its own output.
func fingerprintFNV128(key string) Fingerprint {
	h := fnv.New128a()
	_, _ = h.Write([]byte(key))
	var sum [16]byte
	h.Sum(sum[:0])
	var fp Fingerprint
	for i := 0; i < 8; i++ {
		fp[0] = fp[0]<<8 | uint64(sum[i])
		fp[1] = fp[1]<<8 | uint64(sum[8+i])
	}
	return fp
}

// naiveResult is what naiveReach observed: the string key of every
// visited configuration indexed by visit id, the transitions examined,
// and whether the MaxConfigs cap stopped the search.
type naiveResult struct {
	keys   []string
	steps  int
	capped bool
}

// naiveReach is the reference BFS: P-only breadth-first search from c with
// Apply for transitions, string keys for identity and a map for the
// visited set — no packing, no fingerprints, no workers. It visits in the
// order Reach does at Workers: 1 and stops, like Reach, as soon as the
// visit count reaches opts' configuration cap.
func naiveReach(c model.Config, p []int, opts Options) naiveResult {
	maxConfigs := opts.maxConfigs()
	root := opts.ConfigKey(c)
	res := naiveResult{keys: []string{root}}
	seen := map[string]bool{root: true}
	for level := []model.Config{c}; len(level) > 0; {
		var next []model.Config
		for _, cfg := range level {
			for _, m := range Moves(cfg, p) {
				res.steps++
				child := model.Apply(cfg, m)
				key := opts.ConfigKey(child)
				if seen[key] {
					continue
				}
				seen[key] = true
				res.keys = append(res.keys, key)
				if len(res.keys) >= maxConfigs {
					res.capped = true
					return res
				}
				next = append(next, child)
			}
		}
		level = next
	}
	return res
}
