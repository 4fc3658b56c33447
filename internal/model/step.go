package model

// Cheap inspection and copying of configurations. The exploration hot path never steps a Config: it steps
// packed records through a PackedStepper and unpacks a configuration only
// for a caller that reads it.

// OpPeeker is an optional extension of State: PeekOp returns the pending
// operation's kind and register without building the full Op. Pending's
// Arg field is the expensive part for write-poised states (protocols
// encode it into a fresh string), and most inspections — move
// enumeration, decided-checks, cover tests — need only the kind and
// register. The two forms must agree: PeekOp() == (Pending().Kind,
// Pending().Reg) always.
type OpPeeker interface {
	PeekOp() (OpKind, int)
}

// PeekOp returns the kind and register of s's pending operation, through
// OpPeeker when implemented and Pending otherwise.
func PeekOp(s State) (OpKind, int) {
	if p, ok := s.(OpPeeker); ok {
		return p.PeekOp()
	}
	op := s.Pending()
	return op.Kind, op.Reg
}

// Clone returns a deep copy of c with freshly allocated slices. Exploration
// hands out configurations backed by reused buffers that are only valid
// transiently (explore.Visit); callers that retain one past that window
// clone it first.
func (c Config) Clone() Config {
	states := make([]State, len(c.states))
	copy(states, c.states)
	regs := make([]Value, len(c.regs))
	copy(regs, c.regs)
	return Config{states: states, regs: regs}
}
