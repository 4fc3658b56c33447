package model

import "fmt"

// Move is one step of an execution: a process identifier plus, when the
// process is poised on a coin flip, the outcome the adversary observed. For
// deterministic steps Coin is ignored. A sequence of Moves fully determines
// an execution even for nondeterministic (coin-flipping) protocols, which a
// bare Schedule does not.
type Move struct {
	Pid  int
	Coin Value
}

// String renders the move.
func (m Move) String() string {
	if m.Coin != Bottom {
		return fmt.Sprintf("p%d[coin=%s]", m.Pid, string(m.Coin))
	}
	return fmt.Sprintf("p%d", m.Pid)
}

// Path is a finite execution: a sequence of moves applicable from some
// configuration.
type Path []Move

// Schedule projects the path onto its process identifiers.
func (p Path) Schedule() Schedule {
	s := make(Schedule, len(p))
	for i, m := range p {
		s[i] = m.Pid
	}
	return s
}

// OnlyBy reports whether every move is by a process in set.
func (p Path) OnlyBy(set map[int]bool) bool {
	return p.Schedule().OnlyBy(set)
}

// ConcatPaths concatenates paths left to right.
func ConcatPaths(paths ...Path) Path {
	var n int
	for _, p := range paths {
		n += len(p)
	}
	out := make(Path, 0, n)
	for _, p := range paths {
		out = append(out, p...)
	}
	return out
}

// MovesOf lifts a coin-free schedule to a path.
func MovesOf(s Schedule) Path {
	p := make(Path, len(s))
	for i, pid := range s {
		p[i] = Move{Pid: pid}
	}
	return p
}

// RunPath applies the path to configuration c, move by move (see Apply).
func RunPath(c Config, p Path) Config {
	for _, m := range p {
		c = Apply(c, m)
	}
	return c
}

// Apply performs move m on c. A coin-flip step takes its outcome from the
// move, defaulting to "0" when the move carries none; any other step
// ignores the move's coin.
func Apply(c Config, m Move) Config {
	if k, _ := PeekOp(c.State(m.Pid)); k == OpCoin {
		out := m.Coin
		if out == Bottom {
			out = "0"
		}
		return c.Step(m.Pid, out)
	}
	return c.StepDet(m.Pid)
}
