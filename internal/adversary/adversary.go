// Package adversary implements the constructions of Zhu's "A Tight Space
// Bound for Consensus" (Section 3) as executable algorithms: given any
// consensus protocol expressed in internal/model, it actually builds the
// executions whose existence the paper proves — culminating in Theorem1,
// which drives the protocol into a configuration where n-1 distinct
// registers are covered or written.
//
// Every function mirrors one artifact of the paper:
//
//	Proposition 2  -> InitialBivalent
//	Lemma 1        -> Engine.Lemma1
//	Lemma 2        -> Engine.Lemma2
//	Lemma 3        -> Engine.Lemma3
//	Lemma 4        -> Engine.Lemma4
//	Theorem 1      -> Engine.Theorem1
//
// The proofs are non-constructive only in their use of "P can decide v from
// C"; the valency oracle (internal/valency) decides those quantifiers by
// exhaustive search, so the constructions here terminate with concrete
// witness executions. Each function re-verifies the property its paper
// counterpart guarantees and returns an error if the protocol or the oracle
// bounds betray it — running this package against a protocol is a mechanical
// check of the paper's proof on that protocol.
package adversary

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/valency"
)

// Engine runs the constructions for one protocol instance.
type Engine struct {
	oracle *valency.Oracle
	// scope is the observability scope inherited from the oracle's
	// exploration options: the lemma stages trace themselves as spans
	// mirroring the paper's proof structure, and phase labels feed the
	// /progress endpoint. nil (the default) disables all of it.
	scope *obs.Scope
	// prog records completed proof stages so an interrupted run can
	// report its progress (see Partial). Entry points reset it.
	prog progress
	// maxRounds caps the D_i sequence in Lemma 4; the pigeonhole argument
	// bounds it by the number of register subsets, and the cap turns a
	// violated invariant into an error instead of a hang.
	maxRounds int
	// probeBudget bounds each of Lemma 1's bivalence probes (see
	// DefaultProbeBudget).
	probeBudget int
	// ckpt, when set, is told which proof stage is current so snapshots
	// are stage-tagged and a resumed run reports the lemma it re-enters.
	ckpt *checkpoint.Coordinator
}

// DefaultMaxRounds caps the covering sequence per Lemma 4 invocation.
const DefaultMaxRounds = 4096

// DefaultProbeBudget is the per-candidate configuration budget for Lemma 1's
// bivalence probes. It is sized to be negligible next to an exhaustive
// |P|-1 search (millions to hundreds of millions of configurations for
// DiskRace at n=4) while still letting solo-seeded certificates and small
// exhausted subspaces resolve; a failed probe costs at most this many
// configurations before Lemma 1 falls back to the exact path.
const DefaultProbeBudget = 1 << 16

// New returns an engine backed by the given valency oracle.
func New(oracle *valency.Oracle) *Engine {
	return &Engine{
		oracle:      oracle,
		scope:       oracle.Obs(),
		maxRounds:   DefaultMaxRounds,
		probeBudget: DefaultProbeBudget,
	}
}

// Oracle exposes the engine's valency oracle (for reporting query counts).
func (e *Engine) Oracle() *valency.Oracle { return e.oracle }

// SetCheckpointer attaches a coordinator to both the engine (stage tags)
// and its oracle (memo source plus a save opportunity after every query).
// nil detaches.
func (e *Engine) SetCheckpointer(c *checkpoint.Coordinator) {
	e.ckpt = c
	e.oracle.SetCheckpointer(c)
}

// stage records a proof-stage transition: the /progress phase label, the
// snapshot stage tag, and a checkpoint save opportunity. Stage strings are
// what an operator sees in a resumed run's "re-entering" log line.
func (e *Engine) stage(format string, args ...any) {
	e.scope.SetPhase(format, args...)
	if e.ckpt != nil {
		e.ckpt.SetStage(fmt.Sprintf(format, args...))
		e.ckpt.Tick()
	}
}

// InitialBivalent implements Proposition 2: it returns the initial
// configuration in which process 0 has input 0, process 1 has input 1 and
// every other process has input 1, and verifies that {p0} is 0-univalent,
// {p1} is 1-univalent, and hence {p0,p1} is bivalent.
func (e *Engine) InitialBivalent(ctx context.Context, m model.Machine, n int) (model.Config, error) {
	if n < 2 {
		return model.Config{}, fmt.Errorf("adversary: need n >= 2 processes, got %d", n)
	}
	e.stage("proposition 2: initial bivalence (n=%d)", n)
	inputs := make([]model.Value, n)
	for i := range inputs {
		inputs[i] = valency.V1
	}
	inputs[0] = valency.V0
	c := model.NewConfig(m, inputs)
	for pid, want := range []model.Value{valency.V0, valency.V1} {
		v, err := e.oracle.Decidable(ctx, c, []int{pid})
		if err != nil {
			return model.Config{}, fmt.Errorf("proposition 2: %w", err)
		}
		if got, ok := v.Univalent(); !ok || got != want {
			return model.Config{}, fmt.Errorf(
				"proposition 2 violated: {p%d} should be %s-univalent, decidable set %v",
				pid, string(want), v.Decidable)
		}
		e.prog.note("proposition 2: {p%d} is %s-univalent", pid, string(want))
	}
	biv, err := e.oracle.Bivalent(ctx, c, []int{0, 1})
	if err != nil {
		return model.Config{}, fmt.Errorf("proposition 2: %w", err)
	}
	if !biv {
		return model.Config{}, fmt.Errorf("proposition 2 violated: {p0,p1} not bivalent")
	}
	e.prog.note("proposition 2: initial configuration bivalent for {p0,p1}")
	return c, nil
}

// Lemma1 implements Lemma 1: given a configuration c and a process set p
// (|p| >= 3) bivalent from c, it returns a p-only execution φ and a process
// z ∈ p such that p - {z} is bivalent from cφ.
func (e *Engine) Lemma1(ctx context.Context, c model.Config, p []int) (model.Path, int, error) {
	if len(p) < 3 {
		return nil, 0, fmt.Errorf("lemma 1: need |P| >= 3, got %d", len(p))
	}
	e.stage("lemma 1: peeling a process from |P|=%d", len(p))
	sp := e.scope.StartSpan("lemma1", slog.Int("procs", len(p)))
	phi, z, err := e.lemma1(ctx, c, p)
	if err != nil {
		sp.End(slog.String("err", err.Error()))
		return nil, 0, err
	}
	sp.End(slog.Int("peeled", z), slog.Int("phi_steps", len(phi)))
	return phi, z, nil
}

// lemma1 is Lemma1's worker; the wrapper traces it as one span per peel.
func (e *Engine) lemma1(ctx context.Context, c model.Config, p []int) (model.Path, int, error) {

	// Fast path: the lemma only asks for SOME z ∈ p with p-{z} bivalent
	// from cφ, and bivalence has a short positive certificate (two
	// deciding executions) while refuting it needs the whole p-{z} space
	// exhausted. So before committing to any exhaustive query, probe the
	// candidates under a budget: a hit yields z with φ empty, exactly the
	// lemma's conclusion. For DiskRace at n=4 this is the difference
	// between two solo runs and a >10^8-configuration exhaustion — the
	// probes are what let Theorem 1 finish at n=4 at all. The candidates'
	// spaces overlap almost entirely, so they are submitted as one batch
	// sharing a single search (and a single budget) instead of exploring
	// the shared space once per candidate; the smallest peeled process
	// wins, matching the sequential probe order.
	cands := make([][]int, len(p))
	for i, z := range p {
		cands[i] = model.Without(p, z)
	}
	bivs, err := e.oracle.ProbeBivalentBatch(ctx, c, cands, e.probeBudget)
	if err != nil {
		return nil, 0, fmt.Errorf("lemma 1 probe: %w", err)
	}
	for i, biv := range bivs {
		if biv {
			z := p[i]
			e.prog.note("lemma 1 (|P|=%d): probe peeled p%d with empty φ", len(p), z)
			return model.Path{}, z, nil
		}
	}

	z1, z2 := p[0], p[1]
	q1 := model.Without(p, z1)
	q2 := model.Without(p, z2)
	inter := model.Without(p, z1, z2)

	vInter, err := e.oracle.Decidable(ctx, c, inter)
	if err != nil {
		return nil, 0, fmt.Errorf("lemma 1: %w", err)
	}
	v, ok := vInter.Any()
	if !ok {
		return nil, 0, fmt.Errorf("lemma 1: Q1∩Q2 decides nothing (Proposition 1(i) violated)")
	}
	vbar := valency.Opposite(v)

	// If either Q_i can already decide v̄ it is bivalent (it inherits v
	// from Q1∩Q2 by Proposition 1(ii)) and φ is empty.
	for _, cand := range []struct {
		q []int
		z int
	}{{q1, z1}, {q2, z2}} {
		can, err := e.oracle.CanDecide(ctx, c, cand.q, vbar)
		if err != nil {
			return nil, 0, fmt.Errorf("lemma 1: %w", err)
		}
		if can {
			e.prog.note("lemma 1 (|P|=%d): peeled p%d with empty \u03c6", len(p), cand.z)
			return model.Path{}, cand.z, nil
		}
	}

	// Both Q1 and Q2 are v-univalent from c; P is bivalent, so take a
	// P-only execution ψ deciding v̄ and find the last prefix from which
	// both are still v-univalent.
	vp, err := e.oracle.Decidable(ctx, c, p)
	if err != nil {
		return nil, 0, fmt.Errorf("lemma 1: %w", err)
	}
	psi, ok := vp.Witness[vbar]
	if !ok {
		return nil, 0, fmt.Errorf("lemma 1: P not bivalent from c (no %s witness)", string(vbar))
	}

	d := c
	for i, mv := range psi {
		next := model.Apply(d, mv)
		u1, err := univalentAt(ctx, e.oracle, next, q1, v)
		if err != nil {
			return nil, 0, fmt.Errorf("lemma 1 prefix %d: %w", i, err)
		}
		u2, err := univalentAt(ctx, e.oracle, next, q2, v)
		if err != nil {
			return nil, 0, fmt.Errorf("lemma 1 prefix %d: %w", i, err)
		}
		if u1 && u2 {
			d = next
			continue
		}
		// δ = ψ[i] is the critical step. If its mover is in Q1, then
		// Q1 stays v-univalent across δ, so Q2 must be the bivalent
		// side (and symmetrically).
		phi := append(model.Path{}, psi[:i+1]...)
		z := z2
		if mv.Pid == z1 {
			// The mover is z1 itself, which lies only in Q2: Q2
			// stays univalent, so Q1 = P - {z1} is bivalent.
			z = z1
		}
		rest := model.Without(p, z)
		biv, err := e.oracle.Bivalent(ctx, model.RunPath(c, phi), rest)
		if err != nil {
			return nil, 0, fmt.Errorf("lemma 1 verify: %w", err)
		}
		if !biv {
			return nil, 0, fmt.Errorf("lemma 1 violated: P-{p%d} not bivalent after critical step %d", z, i)
		}
		e.prog.note("lemma 1 (|P|=%d): peeled p%d after critical step %d", len(p), z, i)
		return phi, z, nil
	}
	return nil, 0, fmt.Errorf("lemma 1: no critical step found along ψ (oracle inconsistency)")
}

// Lemma2 implements Lemma 2 as a construction: given a configuration c, a
// covering set r (whose covered registers are read from c), and a process z
// outside the set that was used to establish bivalence, it returns a
// {z}-only deciding execution from c, truncated just before z's first write
// to a register NOT covered by r, together with that register. The paper
// guarantees such a write exists whenever some P ⊇ r with z ∉ P is bivalent
// from cβ; callers are responsible for that hypothesis, and Lemma2 errors if
// the write never materialises.
func (e *Engine) Lemma2(ctx context.Context, c model.Config, r []int, z int) (model.Path, int, error) {
	covered, ok := c.CoverSet(r)
	if !ok {
		return nil, 0, fmt.Errorf("lemma 2: not every process in %v covers a register", r)
	}
	e.stage("lemma 2: forcing p%d outside a %d-register cover", z, len(r))
	sp := e.scope.StartSpan("lemma2", slog.Int("z", z), slog.Int("cover", len(r)))
	zetaPrime, outside, err := e.lemma2(ctx, c, covered, z)
	if err != nil {
		sp.End(slog.String("err", err.Error()))
		return nil, 0, err
	}
	sp.End(slog.Int("outside_register", outside), slog.Int("zeta_steps", len(zetaPrime)))
	return zetaPrime, outside, nil
}

// lemma2 is Lemma2's worker over the already-validated cover set.
func (e *Engine) lemma2(ctx context.Context, c model.Config, covered map[int]bool, z int) (model.Path, int, error) {
	zeta, _, err := e.oracle.SoloDeciding(ctx, c, z)
	if err != nil {
		return nil, 0, fmt.Errorf("lemma 2: %w", err)
	}
	d := c
	for i, mv := range zeta {
		op := d.State(z).Pending()
		if op.Kind == model.OpWrite && !covered[op.Reg] {
			e.prog.note("lemma 2: p%d forced outside cover %v, poised on register %d", z, model.PidList(covered), op.Reg)
			return append(model.Path{}, zeta[:i]...), op.Reg, nil
		}
		d = model.Apply(d, mv)
	}
	return nil, 0, fmt.Errorf(
		"lemma 2 violated: p%d decided solo writing only inside the cover %v", z, model.PidList(covered))
}

// Lemma3 implements Lemma 3: c is a configuration, p a process set, r ⊆ p a
// non-empty set of covering processes in c with q = p - r bivalent from c.
// It returns a (p-r)-only execution φ and a process q ∈ p-r such that
// r ∪ {q} is bivalent from cφβ, where β is the block write by r.
func (e *Engine) Lemma3(ctx context.Context, c model.Config, p, r []int) (model.Path, int, error) {
	if len(r) == 0 {
		return nil, 0, fmt.Errorf("lemma 3: covering set must be non-empty")
	}
	if _, ok := c.CoverSet(r); !ok {
		return nil, 0, fmt.Errorf("lemma 3: not every process in %v covers a register in c", r)
	}
	e.stage("lemma 3: critical Q-only execution (|P|=%d, |R|=%d)", len(p), len(r))
	sp := e.scope.StartSpan("lemma3", slog.Int("procs", len(p)), slog.Int("cover", len(r)))
	phi, crit, err := e.lemma3(ctx, c, p, r)
	if err != nil {
		sp.End(slog.String("err", err.Error()))
		return nil, 0, err
	}
	sp.End(slog.Int("q", crit), slog.Int("phi_steps", len(phi)))
	return phi, crit, nil
}

// lemma3 is Lemma3's worker; the wrapper traces it as one span.
func (e *Engine) lemma3(ctx context.Context, c model.Config, p, r []int) (model.Path, int, error) {
	q := model.Without(p, r...)
	if len(q) == 0 {
		return nil, 0, fmt.Errorf("lemma 3: P-R is empty")
	}
	beta := model.MovesOf(model.BlockWrite(r))

	// v: some value R can decide from cβ (Proposition 1(i)).
	vr, err := e.oracle.Decidable(ctx, model.RunPath(c, beta), r)
	if err != nil {
		return nil, 0, fmt.Errorf("lemma 3: %w", err)
	}
	v, ok := vr.Any()
	if !ok {
		return nil, 0, fmt.Errorf("lemma 3: R decides nothing from cβ")
	}
	vbar := valency.Opposite(v)

	// ψ: a Q-only execution from c deciding v̄.
	vq, err := e.oracle.Decidable(ctx, c, q)
	if err != nil {
		return nil, 0, fmt.Errorf("lemma 3: %w", err)
	}
	psi, ok := vq.Witness[vbar]
	if !ok {
		return nil, 0, fmt.Errorf("lemma 3: Q=%v not bivalent from c (cannot decide %s)", q, string(vbar))
	}

	// φ: the longest prefix of ψ such that R can decide v from cφβ.
	// Precompute the configurations along ψ, then scan from the end.
	configs := make([]model.Config, 0, len(psi)+1)
	d := c
	configs = append(configs, d)
	for _, mv := range psi {
		d = model.Apply(d, mv)
		configs = append(configs, d)
	}
	for i := len(psi) - 1; i >= 0; i-- {
		can, err := e.oracle.CanDecide(ctx, model.RunPath(configs[i], beta), r, v)
		if err != nil {
			return nil, 0, fmt.Errorf("lemma 3 prefix %d: %w", i, err)
		}
		if !can {
			continue
		}
		phi := append(model.Path{}, psi[:i]...)
		crit := psi[i].Pid
		// Verify the lemma's conclusion: R ∪ {crit} bivalent from cφβ.
		group := append(append([]int{}, r...), crit)
		sort.Ints(group)
		biv, err := e.oracle.Bivalent(ctx, model.RunPath(configs[i], beta), group)
		if err != nil {
			return nil, 0, fmt.Errorf("lemma 3 verify: %w", err)
		}
		if !biv {
			return nil, 0, fmt.Errorf("lemma 3 violated: R∪{p%d} not bivalent from cφβ", crit)
		}
		e.prog.note("lemma 3: R=%v block-write survives; R∪{p%d} bivalent", r, crit)
		return phi, crit, nil
	}
	return nil, 0, fmt.Errorf("lemma 3: no prefix of ψ leaves R able to decide %s after β", string(v))
}

// univalentAt reports whether set is v-univalent from c.
func univalentAt(ctx context.Context, o *valency.Oracle, c model.Config, set []int, v model.Value) (bool, error) {
	verdict, err := o.Decidable(ctx, c, set)
	if err != nil {
		return false, err
	}
	got, ok := verdict.Univalent()
	return ok && got == v, nil
}

// coverSignature canonically encodes the set of registers covered by r in c.
func coverSignature(c model.Config, r []int) (string, map[int]bool, error) {
	covered, ok := c.CoverSet(r)
	if !ok {
		return "", nil, fmt.Errorf("cover signature: not all of %v cover registers", r)
	}
	regs := make([]int, 0, len(covered))
	for reg := range covered {
		regs = append(regs, reg)
	}
	sort.Ints(regs)
	parts := make([]string, len(regs))
	for i, reg := range regs {
		parts[i] = strconv.Itoa(reg)
	}
	return strings.Join(parts, ","), covered, nil
}
