// Package valency implements the refined notion of valency from Section 3.1
// of Zhu's "A Tight Space Bound for Consensus": for a reachable configuration
// C and a non-empty set of processes P, the set of values P can decide from C
// via P-only executions (Definition 1), together with bivalence/univalence
// tests and witness executions.
//
// The paper treats "P can decide v from C" as a mathematical quantifier. The
// Oracle decides it by exhaustive P-only exploration (internal/explore) with
// memoisation on canonical configuration fingerprints. For the finite-state
// protocols this repository studies the answer is exact; if a protocol's
// reachable space exceeds the configured caps the oracle fails loudly rather
// than guessing.
//
// Two asymmetries shape the oracle's fast paths. Bivalence has a short
// positive certificate — one P-only execution deciding each value — while
// univalence requires exhausting the whole P-only space. And the cheapest
// certificates are usually solo executions: under the paper's
// solo-termination hypothesis every process decides running alone, and a
// solo run explores a tiny branch of the space. Every query therefore
// seeds each candidate process set with the (memoised) solo-deciding
// executions of its processes before falling back to search, and
// ProbeBivalentBatch exposes the certificate-seeking mode with an explicit
// budget for callers (the adversary's Lemma 1) that can exploit a positive
// answer without needing the negative one.
//
// All queries take one path (batch.go): memo, solo seeding, then one
// explore.ReachSets over the candidates still open. Decidable is a batch of
// one candidate.
package valency

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/obs"
)

// Binary consensus values, as in the paper.
const (
	V0 = model.Value("0")
	V1 = model.Value("1")
)

// Opposite returns the other binary value (v̄ in the paper).
func Opposite(v model.Value) model.Value {
	if v == V0 {
		return V1
	}
	return V0
}

// queryKey identifies a valency query: the 128-bit fingerprint of the
// configuration's canonical key plus the process set as a bitmask. As in
// the explore package, fingerprint equality is trusted as key equality: a
// false memo hit needs a 128-bit mix128 collision, whose probability across
// any feasible number of queries is far below that of a hardware fault.
type queryKey struct {
	fp   explore.Fingerprint
	pids uint64
}

// soloKey identifies a solo-termination query.
type soloKey struct {
	fp  explore.Fingerprint
	pid int
}

// soloEntry is a memoised SoloDeciding answer: either a witness or a
// definite (in-bounds) refutation of solo termination.
type soloEntry struct {
	path model.Path
	val  model.Value
	err  string
}

// Memo is the shared memoisation state of one or more Oracles. The
// adversary's lemma stages construct their oracles with NewWithMemo over a
// common Memo so that, e.g., the valency queries Lemma 3 replays along
// prefixes already walked by Lemma 2 hit instead of re-exploring. Sharing
// is sound exactly when the oracles share exploration options (the
// fingerprints must mean the same canonical keys); NewWithMemo is the only
// way to opt in.
type Memo struct {
	verdicts map[queryKey]*Verdict
	solo     map[soloKey]*soloEntry
}

// NewMemo returns an empty memo table for NewWithMemo.
func NewMemo() *Memo {
	return &Memo{
		verdicts: make(map[queryKey]*Verdict),
		solo:     make(map[soloKey]*soloEntry),
	}
}

// Oracle answers valency queries for one protocol instance. It memoises
// decidable-value sets keyed by (configuration fingerprint, process set),
// which the adversary constructions in internal/adversary query heavily
// along overlapping prefixes.
type Oracle struct {
	opts  explore.Options
	memo  *Memo
	stats Stats
	// fper is the oracle's reusable fingerprint scratch: memo keys are
	// computed once per query on the oracle's own goroutine, so holding one
	// hasher beats a pool round-trip per key (TestQueryKeyAllocs pins the
	// allocation bound).
	fper *explore.Fingerprinter
	// metrics are the oracle's live counters, resolved once at
	// construction from opts.Obs; with observability disabled every
	// pointer is nil and each Add is a single nil-check (per query, never
	// per configuration).
	metrics oracleMetrics
	// ckpt, when set, receives a save opportunity after every query
	// (SetCheckpointer).
	ckpt *checkpoint.Coordinator
}

// oracleMetrics mirrors Stats into the observability registry, live, so
// /debug/vars shows memo hit rates mid-run instead of a terminal snapshot.
type oracleMetrics struct {
	queries, hits         *obs.Counter
	soloQueries, soloHits *obs.Counter
	configs               *obs.Counter
	queryConfigs          *obs.Histogram
	queryUs               *obs.Histogram
}

// QueryLatencyBoundsMicros are the fixed buckets of the valency_query_us
// histogram: exhaustive queries span memo-adjacent microseconds to
// full-space searches of seconds.
var QueryLatencyBoundsMicros = []int64{100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1000000, 5000000, 30000000}

func newOracleMetrics(s *obs.Scope) oracleMetrics {
	if !s.Enabled() {
		return oracleMetrics{}
	}
	return oracleMetrics{
		queries:      s.Counter("valency_queries"),
		hits:         s.Counter("valency_memo_hits"),
		soloQueries:  s.Counter("valency_solo_queries"),
		soloHits:     s.Counter("valency_solo_hits"),
		configs:      s.Counter("valency_configs"),
		queryConfigs: s.Histogram("valency_query_configs", obs.LevelSizeBounds),
		queryUs:      s.Histogram("valency_query_us", QueryLatencyBoundsMicros),
	}
}

// Stats reports the work an oracle has done, for the experiment tables.
type Stats struct {
	// Queries counts candidate process sets queried (a batch of k counts
	// k), Hits the ones answered from the memo.
	Queries, Hits int
	// SoloQueries counts SoloDeciding searches, SoloHits the memoised ones
	// (already-decided fast paths are not counted).
	SoloQueries, SoloHits int
	// Configs is the total number of distinct configurations visited
	// across all non-memoised queries, solo searches included.
	Configs int
	// DeepestLevel is the deepest completed BFS level any search of this
	// oracle reached (partial-progress reporting keys on it).
	DeepestLevel int
}

// Verdict is the answer to one valency query.
type Verdict struct {
	// Decidable is the set of values decidable by P-only executions.
	Decidable map[model.Value]bool
	// Witness maps each decidable value to a P-only path from C to a
	// configuration in which that value has been decided.
	Witness map[model.Value]model.Path
}

// Bivalent reports whether both binary values are decidable.
func (v *Verdict) Bivalent() bool {
	return v.Decidable[V0] && v.Decidable[V1]
}

// Univalent returns the unique decidable value, if exactly one.
func (v *Verdict) Univalent() (model.Value, bool) {
	if len(v.Decidable) != 1 {
		return model.Bottom, false
	}
	for val := range v.Decidable {
		return val, true
	}
	return model.Bottom, false
}

// Any returns a decidable value (Proposition 1(i) guarantees one exists
// for correct protocols), deterministically: V0 when decidable, then V1,
// then the least other value. Lemmas 1 and 3 steer the construction by it,
// so a bivalent verdict must not pick by map order. The boolean is false
// for a protocol that can reach a decision-free sink, which would itself
// violate solo termination.
func (v *Verdict) Any() (model.Value, bool) {
	switch {
	case v.Decidable[V0]:
		return V0, true
	case v.Decidable[V1]:
		return V1, true
	case len(v.Decidable) == 0:
		return model.Bottom, false
	}
	least, first := model.Bottom, true
	for val := range v.Decidable {
		if first || val < least {
			least, first = val, false
		}
	}
	return least, true
}

// New returns an oracle using the given exploration bounds, with a private
// memo table.
func New(opts explore.Options) *Oracle {
	return NewWithMemo(opts, NewMemo())
}

// NewWithMemo returns an oracle sharing the given memo table. All oracles
// sharing a memo must use identical exploration options.
func NewWithMemo(opts explore.Options, memo *Memo) *Oracle {
	return &Oracle{opts: opts, memo: memo, fper: opts.NewFingerprinter(), metrics: newOracleMetrics(opts.Obs)}
}

// Stats returns a copy of the oracle's work counters.
func (o *Oracle) Stats() Stats { return o.stats }

// Obs returns the observability scope the oracle's exploration options
// carry (nil when disabled); the adversary engine traces through it.
func (o *Oracle) Obs() *obs.Scope { return o.opts.Obs }

func (o *Oracle) queryKey(c model.Config, p []int) (queryKey, error) {
	var mask uint64
	for _, pid := range p {
		if pid < 0 || pid >= 64 {
			return queryKey{}, fmt.Errorf("valency: pid %d outside memo-key range [0,64)", pid)
		}
		mask |= 1 << uint(pid)
	}
	return queryKey{fp: o.fper.Fingerprint(c), pids: mask}, nil
}

func newVerdict() *Verdict {
	return &Verdict{
		Decidable: make(map[model.Value]bool),
		Witness:   make(map[model.Value]model.Path),
	}
}

// seedSolo seeds verdict with the (memoised) solo-deciding executions of
// the processes in p — each is a p-only execution, so every value it
// decides belongs in the decidable set. Processes that cannot decide solo
// within bounds contribute nothing and the error is swallowed (the
// exhaustive search still decides the query); only context cancellation
// propagates.
func (o *Oracle) seedSolo(ctx context.Context, c model.Config, p []int, verdict *Verdict) error {
	for _, pid := range p {
		path, val, err := o.SoloDeciding(ctx, c, pid)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("valency solo seed p%d: %w", pid, err)
			}
			continue
		}
		if !verdict.Decidable[val] {
			verdict.Decidable[val] = true
			verdict.Witness[val] = path
		}
		if verdict.Bivalent() {
			return nil
		}
	}
	return nil
}

// probeOutcome records one candidate's resolution as a counter bump and a
// trace event; outcome names the evidence that settled (or failed to
// settle) it.
func (o *Oracle) probeOutcome(p []int, outcome string, bivalent bool) {
	s := o.opts.Obs
	if !s.Enabled() {
		return
	}
	s.Counter("valency_probe_" + outcome).Add(1)
	s.Event("valency_probe",
		slog.Int("procs", len(p)),
		slog.String("outcome", outcome),
		slog.Bool("bivalent", bivalent),
	)
}

// Bivalent reports whether p is bivalent from c (Definition 1).
func (o *Oracle) Bivalent(ctx context.Context, c model.Config, p []int) (bool, error) {
	v, err := o.Decidable(ctx, c, p)
	if err != nil {
		return false, err
	}
	return v.Bivalent(), nil
}

// CanDecide reports whether p can decide val from c.
func (o *Oracle) CanDecide(ctx context.Context, c model.Config, p []int, val model.Value) (bool, error) {
	v, err := o.Decidable(ctx, c, p)
	if err != nil {
		return false, err
	}
	return v.Decidable[val], nil
}

// SoloDeciding returns a {pid}-only execution from c in which pid decides,
// together with the decided value. Its existence for every reachable c and
// every pid is exactly the paper's "nondeterministic solo terminating"
// hypothesis; an error therefore means the protocol under test is not NST
// within the oracle's bounds.
//
// Answers are memoised per (configuration fingerprint, pid): Lemmas 2 and 3
// re-ask along overlapping execution prefixes, and every query's solo
// seeding asks again for each candidate set holding pid. Definite refutations are memoised
// too; bounded failures (context, caps) are not, since a retry with more
// budget could succeed.
func (o *Oracle) SoloDeciding(ctx context.Context, c model.Config, pid int) (model.Path, model.Value, error) {
	if v, ok := c.Decided(pid); ok {
		return nil, v, nil
	}
	o.stats.SoloQueries++
	o.metrics.soloQueries.Add(1)
	key := soloKey{fp: o.fper.Fingerprint(c), pid: pid}
	if e, ok := o.memo.solo[key]; ok {
		o.stats.SoloHits++
		o.metrics.soloHits.Add(1)
		if e.err != "" {
			return nil, model.Bottom, errors.New(e.err)
		}
		// Clone: callers splice witness paths into longer schedules.
		return slices.Clone(e.path), e.val, nil
	}
	var (
		decided model.Value
		foundID = -1
	)
	sp := o.opts.Obs.StartSpan("valency_solo", slog.Int("pid", pid))
	res, err := explore.Reach(ctx, c, []int{pid}, o.opts, func(v explore.Visit) bool {
		if val, ok := v.Config.Decided(pid); ok {
			decided = val
			foundID = v.ID
			return false // stop: witness located
		}
		return true
	})
	sp.End(slog.Int("configs", res.Count), slog.Bool("decided", foundID >= 0))
	o.stats.Configs += res.Count
	o.stats.DeepestLevel = max(o.stats.DeepestLevel, res.Depth)
	o.metrics.configs.Add(int64(res.Count))
	if foundID < 0 {
		if err != nil {
			return nil, model.Bottom, fmt.Errorf("solo termination search for p%d: %w", pid, err)
		}
		nstErr := fmt.Errorf(
			"protocol is not solo terminating: p%d cannot decide solo (%d configs searched)",
			pid, res.Count)
		o.memo.solo[key] = &soloEntry{err: nstErr.Error()}
		return nil, model.Bottom, nstErr
	}
	path, ok := res.PathTo(foundID)
	if !ok {
		return nil, model.Bottom, fmt.Errorf("valency: lost solo witness for p%d", pid)
	}
	o.memo.solo[key] = &soloEntry{path: path, val: decided}
	return slices.Clone(path), decided, nil
}
