package explore

import "repro/internal/obs"

// searchMetrics are the flight-recorder instruments of one Reach call:
// every pointer is resolved once at search start (nil scope → nil, no-op
// instruments, zero map lookups later) and fed once per BFS level from the
// per-chunk deltas the coordinator folds after the level barrier. Nothing
// here runs per configuration — the allocation-regression tests hold the
// enabled-scope packed path to the same ≤4 allocs/config gate as the
// disabled one.
type searchMetrics struct {
	// rawHits counts rawSeen pre-filter screens, a subset of the dedup
	// hits: the cache is bounded and lossy, so a duplicate of a record it
	// has forgotten is a dedup hit without being a screen.
	rawHits    *obs.Counter
	stepHits   *obs.Counter // stepper memo hits across all workers
	stepMisses *obs.Counter // stepper memo misses (slow-path resolves)

	arenaWords *obs.Gauge   // next-frontier arena occupancy, in uint64 words
	arenaPeak  *obs.Gauge   // its high-water mark across the search
	mergeBytes *obs.Counter // bytes copied merging chunk records into arenas

	fpEntries *obs.Gauge     // visited-set fingerprints
	fpLoad    *obs.Gauge     // visited-set load factor, in permille
	fpProbe   *obs.Histogram // sampled linear-probe displacement per lookup

	dictStates  *obs.Gauge // codec interned state count
	dictVals    *obs.Gauge // codec interned value count
	dictStateSh *obs.Gauge // fullest state key-map shard (balance check)
	dictValSh   *obs.Gauge // fullest value key-map shard
}

// ProbeLenBounds are the fixed buckets of the explore_fpset_probe_len
// histogram: displacement 0 is a home-slot hit; the tail marks clustering.
var ProbeLenBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64}

// fpSampleSlotsPerShard bounds the probe-displacement sample taken from
// each visited-set stripe at a level boundary, so the sampling cost stays
// O(1) per level however large the set grows.
const fpSampleSlotsPerShard = 128

// newSearchMetrics resolves the instruments from s (nil-safe: a nil scope
// yields all-nil, no-op instruments).
func newSearchMetrics(s *obs.Scope) searchMetrics {
	return searchMetrics{
		rawHits:     s.Counter("explore_raw_prefilter_hits"),
		stepHits:    s.Counter("explore_stepper_memo_hits"),
		stepMisses:  s.Counter("explore_stepper_memo_misses"),
		arenaWords:  s.Gauge("explore_arena_words"),
		arenaPeak:   s.Gauge("explore_arena_peak_words"),
		mergeBytes:  s.Counter("explore_arena_merge_bytes"),
		fpEntries:   s.Gauge("explore_fpset_entries"),
		fpLoad:      s.Gauge("explore_fpset_load_permille"),
		fpProbe:     s.Histogram("explore_fpset_probe_len", ProbeLenBounds),
		dictStates:  s.Gauge("explore_codec_dict_states"),
		dictVals:    s.Gauge("explore_codec_dict_values"),
		dictStateSh: s.Gauge("explore_codec_state_shard_max"),
		dictValSh:   s.Gauge("explore_codec_value_shard_max"),
	}
}

// chunkDeltas folds one merged chunk's instrumentation deltas. Called by
// the coordinator after the level barrier, so the plain chunk fields are
// safely visible.
func (m *searchMetrics) chunkDeltas(ch *chunk) {
	m.rawHits.Add(int64(ch.rawHits))
	m.stepHits.Add(int64(ch.stepHits))
	m.stepMisses.Add(int64(ch.stepMisses))
}

// level samples the slow-moving structures once per completed BFS level:
// visited-set load and probe lengths, arena occupancy, codec dictionaries.
func (m *searchMetrics) level(s *search, next *frontier) {
	n, slots := s.visited.stats(fpSampleSlotsPerShard, m.fpProbe)
	m.fpEntries.Set(int64(n))
	if slots > 0 {
		m.fpLoad.Set(int64(n) * 1000 / int64(slots))
	}
	words := int64(next.len() * next.stride)
	m.arenaWords.Set(words)
	m.arenaPeak.Max(words)
	m.mergeBytes.Add(words * 8)
	states, vals, maxSS, maxVS := s.codec.DictStats()
	m.dictStates.Set(int64(states))
	m.dictVals.Set(int64(vals))
	m.dictStateSh.Set(int64(maxSS))
	m.dictValSh.Set(int64(maxVS))
}
