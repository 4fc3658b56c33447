package adversary

import (
	"context"
	"fmt"
	"log/slog"
	"sort"

	"repro/internal/model"
	"repro/internal/valency"
)

// Theorem1Witness is the artifact Theorem 1 promises: a reachable
// configuration of the protocol in which n-1 distinct registers are covered
// or about to be written, demonstrating that the protocol uses at least n-1
// registers.
type Theorem1Witness struct {
	Protocol string
	N        int
	// Inputs is the initial input vector (Proposition 2's mixed inputs).
	Inputs []model.Value
	// Execution drives the initial configuration to the witness
	// configuration.
	Execution model.Path
	// Covered maps each covering process to its distinct register: the
	// n-2 processes of R from Lemma 4 plus the peeled process z poised
	// outside their cover (n=2 instead records the single register of
	// p0's first solo write).
	Covered map[int]int
	// Registers is the number of distinct registers witnessed, ≥ n-1.
	Registers int
	// Rounds is the total number of covering-sequence iterations used by
	// Lemma 4 (0 for n=2).
	Rounds int
	// Phases decomposes Execution into the proof's named sub-executions
	// (α from Lemma 4, φ from Lemma 3, ζ from Lemma 2), for the
	// Figure-4-style diagrams in internal/trace.
	Phases []Phase
	// OracleStats records the exhaustive-search work behind the witness.
	OracleStats valency.Stats
}

// Phase is one labelled sub-execution of a witness.
type Phase struct {
	// Label names the phase in the paper's notation.
	Label string
	// Steps is the phase's length in steps.
	Steps int
}

// String summarises the witness in one line (one row of experiment E1).
func (w *Theorem1Witness) String() string {
	regs := make([]int, 0, len(w.Covered))
	for _, reg := range w.Covered {
		regs = append(regs, reg)
	}
	sort.Ints(regs)
	return fmt.Sprintf("%s n=%d: %d distinct registers witnessed %v (bound n-1=%d), |α|=%d steps, %d covering rounds",
		w.Protocol, w.N, w.Registers, regs, w.N-1, len(w.Execution), w.Rounds)
}

// Theorem1 implements the paper's main theorem as a construction: it drives
// the protocol m with n processes into a configuration witnessing that m
// uses at least n-1 registers.
//
// For n = 2 it follows the theorem's special case: in p0's solo deciding
// execution from the bivalent initial configuration, p0 must write some
// register (otherwise p1 could not distinguish p0's run from no run at all
// and would decide its own value, violating Agreement).
//
// For n >= 3: by Proposition 2 the initial configuration I is bivalent for
// {p0,p1}, hence for the full process set. Lemma 4 reaches C0 where a pair Q
// is bivalent and the remaining n-2 processes R cover distinct registers.
// Lemma 3 produces a Q-only execution φ and q ∈ Q with R ∪ {q} bivalent
// from C0φβ. For z ∈ Q - {q}, Lemma 2 forces z's solo deciding execution
// from C0φ to write outside R's cover — so the protocol touches at least
// |R| + 1 = n-1 distinct registers.
// A cancelled or capped run returns a *Partial error reporting the stages
// that completed and the registers forced so far (use errors.As).
func (e *Engine) Theorem1(ctx context.Context, m model.Machine, n int) (*Theorem1Witness, error) {
	e.prog = progress{}
	sp := e.scope.StartSpan("theorem1", slog.String("protocol", m.Name()), slog.Int("n", n))
	w, err := e.theorem1(ctx, m, n)
	if err != nil {
		sp.End(slog.String("err", err.Error()))
		return w, err
	}
	sp.End(slog.Int("registers", w.Registers), slog.Int("steps", len(w.Execution)))
	e.stage("theorem 1 complete: %d registers witnessed (n=%d)", w.Registers, n)
	return w, nil
}

// theorem1 is Theorem1's worker; the wrapper traces the whole construction
// as one span.
func (e *Engine) theorem1(ctx context.Context, m model.Machine, n int) (*Theorem1Witness, error) {
	initial, err := e.InitialBivalent(ctx, m, n)
	if err != nil {
		return nil, e.partial(m.Name(), n, err)
	}
	witness := &Theorem1Witness{
		Protocol: m.Name(),
		N:        n,
	}
	inputs := make([]model.Value, n)
	for i := range inputs {
		inputs[i] = valency.V1
	}
	inputs[0] = valency.V0
	witness.Inputs = inputs

	if n == 2 {
		w, err := e.theorem1Pair(ctx, m, initial, witness)
		return w, e.partial(m.Name(), n, err)
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	l4, err := e.Lemma4(ctx, initial, all)
	if err != nil {
		return nil, e.partial(m.Name(), n, fmt.Errorf("theorem 1: %w", err))
	}
	r := model.Without(all, l4.Q...)
	phi, q, err := e.Lemma3(ctx, l4.Config, all, r)
	if err != nil {
		return nil, e.partial(m.Name(), n, fmt.Errorf("theorem 1: %w", err))
	}
	var z int
	for _, pid := range l4.Q {
		if pid != q {
			z = pid
		}
	}
	afterPhi := model.RunPath(l4.Config, phi)
	zeta, outside, err := e.Lemma2(ctx, afterPhi, r, z)
	if err != nil {
		return nil, e.partial(m.Name(), n, fmt.Errorf("theorem 1: %w", err))
	}

	witness.Execution = model.ConcatPaths(l4.Alpha, phi, zeta)
	witness.Rounds = l4.Rounds
	witness.Phases = []Phase{
		{Label: "α (Lemma 4: covering construction)", Steps: len(l4.Alpha)},
		{Label: "φ (Lemma 3: critical Q-only execution)", Steps: len(phi)},
		{Label: fmt.Sprintf("ζ (Lemma 2: p%d solo, truncated before its outside write)", z), Steps: len(zeta)},
	}
	witness.Covered = make(map[int]int, n-1)
	used := make(map[int]bool, n-1)
	final := model.RunPath(initial, witness.Execution)
	for _, pid := range r {
		reg, ok := final.CoveredRegister(pid)
		if !ok || used[reg] {
			return nil, fmt.Errorf("theorem 1: p%d lost its distinct cover", pid)
		}
		witness.Covered[pid], used[reg] = reg, true
	}
	zReg, ok := final.CoveredRegister(z)
	if !ok || zReg != outside || used[zReg] {
		return nil, fmt.Errorf("theorem 1: z=p%d not poised on a fresh register", z)
	}
	witness.Covered[z] = zReg
	witness.Registers = len(witness.Covered)
	witness.OracleStats = e.oracle.Stats()
	if witness.Registers < n-1 {
		return nil, fmt.Errorf("theorem 1: witnessed only %d registers, expected >= %d",
			witness.Registers, n-1)
	}
	return witness, nil
}

// theorem1Pair handles the n=2 case of the theorem's proof.
func (e *Engine) theorem1Pair(ctx context.Context, m model.Machine, initial model.Config, w *Theorem1Witness) (*Theorem1Witness, error) {
	zeta, _, err := e.oracle.SoloDeciding(ctx, initial, 0)
	if err != nil {
		return nil, fmt.Errorf("theorem 1 (n=2): %w", err)
	}
	d := initial
	for i, mv := range zeta {
		op := d.State(0).Pending()
		if op.Kind == model.OpWrite {
			w.Execution = append(model.Path{}, zeta[:i]...)
			w.Covered = map[int]int{0: op.Reg}
			w.Registers = 1
			w.Phases = []Phase{{Label: "ζ (p0 solo, truncated before its first write)", Steps: i}}
			w.OracleStats = e.oracle.Stats()
			return w, nil
		}
		d = model.Apply(d, mv)
	}
	return nil, fmt.Errorf(
		"theorem 1 violated at n=2: p0 decided solo without writing (p1 cannot distinguish; protocol %s is not a consensus protocol)",
		m.Name())
}
