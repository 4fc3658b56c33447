package model

// PackedStepper executes protocol transitions directly on packed records,
// memoising each (state, input) pair it resolves so the exploration hot
// path stops paying State.Pending/State.Next — and their per-protocol
// string encoding — more than once per behaviourally distinct transition.
//
// Soundness rests on the State contract: states are pure values and two
// states with equal Key behave identically forever. Dictionary ids are
// assigned per key, so (state id, operation input) determines the
// successor state id and any written value id exactly; the memo is a pure
// cache and can never change results, only skip recomputation.
//
// A stepper is single-goroutine scratch (each exploration worker owns
// one); the codec it wraps is shared, so concurrent steppers fill their
// private memos while agreeing on every dictionary id.

// The memo key is sid<<32 | input. A state id determines its pending kind,
// so the input half is interpreted per kind with no cross-kind collisions:
// the read/swap input is the register's value id, the coin input is the
// outcome bit, and writes take no input (0).

// packedOp is the memoised PeekOp of one interned state.
type packedOp struct {
	kind OpKind
	reg  int32
}

// packedSucc is a memoised transition outcome: the successor state id and,
// for write/swap transitions, the id of the value stored to the register.
type packedSucc struct {
	sid      uint32
	wvid     uint32
	writesTo bool
}

// PackedStepper is the per-worker transition engine over one PackedCodec.
type PackedStepper struct {
	pc   *PackedCodec
	kb   KeyBuilder
	ops  []packedOp
	succ map[uint64]packedSucc
	// hits/misses count memo lookups in StepPacked. Plain ints: a stepper
	// is single-goroutine scratch, and the owner harvests them between
	// chunks (explore folds the deltas into per-level metrics).
	hits   uint64
	misses uint64
}

// NewStepper returns a stepper over the codec's dictionaries with empty
// memos.
func (pc *PackedCodec) NewStepper() *PackedStepper {
	return &PackedStepper{pc: pc, succ: make(map[uint64]packedSucc)}
}

// Op returns the pending operation kind and register of the state with
// dictionary id sid, memoised in a dense array.
func (ps *PackedStepper) Op(sid uint32) (OpKind, int) {
	if int(sid) < len(ps.ops) {
		if op := ps.ops[sid]; op.kind != 0 {
			return op.kind, int(op.reg)
		}
	}
	s, ok := ps.pc.states.at(sid)
	if !ok {
		panic("model: stepper op on uninterned state id")
	}
	k, reg := PeekOp(s)
	for int(sid) >= len(ps.ops) {
		ps.ops = append(ps.ops, make([]packedOp, len(ps.ops)+64)...)
	}
	ps.ops[sid] = packedOp{kind: k, reg: int32(reg)}
	return k, reg
}

// StepPacked writes the packed successor of src under a step of pid (with
// the given coin outcome if pid is coin-poised) into dst. src must be a
// live record of the codec; dst must be Words() long and must not alias
// src. Stepping a decided process
// is a caller bug (the move enumerators never emit one) and panics.
func (ps *PackedStepper) StepPacked(dst, src []uint64, pid int, coin Value) error {
	pc := ps.pc
	sid := uint32(getField(src, pc.stateOff(pid), pc.stateBits))
	kind, reg := ps.Op(sid)

	key := uint64(sid) << 32
	switch kind {
	case OpRead, OpSwap:
		key |= getField(src, pc.regOff(reg), pc.regBits)
	case OpWrite:
	case OpCoin:
		if coin == "1" {
			key |= 1
		}
	default:
		panic("model: packed step on decided or invalid state")
	}
	succ, ok := ps.succ[key]
	if ok {
		ps.hits++
	} else {
		ps.misses++
		var err error
		if succ, err = ps.resolve(sid, kind, reg, key, coin); err != nil {
			return err
		}
	}
	copy(dst, src)
	setField(dst, pc.stateOff(pid), pc.stateBits, uint64(succ.sid))
	if succ.writesTo {
		setField(dst, pc.regOff(reg), pc.regBits, uint64(succ.wvid))
	}
	return nil
}

// resolve computes and memoises one transition the slow way, through the
// State interface.
func (ps *PackedStepper) resolve(sid uint32, kind OpKind, reg int, key uint64, coin Value) (packedSucc, error) {
	pc := ps.pc
	s, ok := pc.states.at(sid)
	if !ok {
		panic("model: stepper resolve on uninterned state id")
	}
	var succ packedSucc
	switch kind {
	case OpRead, OpSwap:
		vid := uint32(key) // low 32 bits of the memo key are the input id
		in, ok := pc.vals.at(vid)
		if !ok {
			panic("model: stepper resolve on uninterned value id")
		}
		next := s.Next(in)
		id, err := pc.InternState(&ps.kb, next)
		if err != nil {
			return packedSucc{}, err
		}
		succ.sid = id
		if kind == OpSwap {
			wvid, err := pc.InternValue(s.Pending().Arg)
			if err != nil {
				return packedSucc{}, err
			}
			succ.wvid, succ.writesTo = wvid, true
		}
	case OpWrite:
		next := s.Next(Bottom)
		id, err := pc.InternState(&ps.kb, next)
		if err != nil {
			return packedSucc{}, err
		}
		wvid, err := pc.InternValue(s.Pending().Arg)
		if err != nil {
			return packedSucc{}, err
		}
		succ = packedSucc{sid: id, wvid: wvid, writesTo: true}
	case OpCoin:
		next := s.Next(coin)
		id, err := pc.InternState(&ps.kb, next)
		if err != nil {
			return packedSucc{}, err
		}
		succ.sid = id
	}
	ps.succ[key] = succ
	return succ, nil
}

// Stats returns the cumulative memo hit/miss counts of StepPacked calls.
// Read from the owning goroutine only (or after it has quiesced).
func (ps *PackedStepper) Stats() (hits, misses uint64) {
	return ps.hits, ps.misses
}

// StateID extracts the dictionary id of pid's state field from a packed
// record.
func (pc *PackedCodec) StateID(words []uint64, pid int) uint32 {
	return uint32(getField(words, pc.stateOff(pid), pc.stateBits))
}
