package explore

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// Replayer rebuilds packed records from witness paths: the receiving end
// of the dist shard worker's path-addressed frontier entries. It keeps the
// record after every prefix of the last path it replayed, one per depth,
// so a path that shares a prefix with its predecessor costs only the
// moves past that prefix. Frontiers
// list siblings together, so consecutive paths mostly differ in their last
// move. Moves step through the Expander's memoised PackedStepper, never
// model.Apply. Not safe for concurrent use; the Expander it steps through
// must not be in use by another goroutine either.
type Replayer struct {
	x      *Expander
	stride int
	// recs[d*stride:(d+1)*stride] is the record reached by last[:d];
	// the first record is the root's.
	recs []uint64
	last []uint32
}

// NewReplayer packs root once and returns a Replayer stepping through x.
func NewReplayer(x *Expander, root model.Config) (*Replayer, error) {
	r := &Replayer{x: x, stride: x.codec.Words()}
	r.recs = make([]uint64, r.stride)
	if err := x.codec.PackTo(r.recs, root); err != nil {
		return nil, fmt.Errorf("explore: replay root: %w", err)
	}
	return r, nil
}

// Replay returns the record reached from the root by path, a sequence of
// model.PackMove encodings, with model.RunPath's semantics: a move of a
// decided process leaves the configuration unchanged and a coin-poised
// process's move without an outcome takes "0". The record aliases the
// Replayer's scratch and stays valid until the next call.
func (r *Replayer) Replay(path []uint32) ([]uint64, error) {
	shared := 0
	for shared < len(path) && shared < len(r.last) && path[shared] == r.last[shared] {
		shared++
	}
	r.last = append(r.last[:shared], path[shared:]...)
	if need := (len(path) + 1) * r.stride; need > len(r.recs) {
		r.recs = slices.Grow(r.recs, need-len(r.recs))[:need]
	}
	for d := shared; d < len(path); d++ {
		src := r.recs[d*r.stride : (d+1)*r.stride]
		dst := r.recs[(d+1)*r.stride : (d+2)*r.stride]
		if err := r.step(dst, src, path[d]); err != nil {
			r.last = r.last[:d]
			return nil, fmt.Errorf("explore: replay move %d: %w", d, err)
		}
	}
	n := len(path)
	return r.recs[n*r.stride : (n+1)*r.stride], nil
}

// step writes the successor of src under the packed move mv into dst.
func (r *Replayer) step(dst, src []uint64, mv uint32) error {
	m := model.UnpackMove(mv)
	if m.Pid >= r.x.codec.NumProcesses() {
		return fmt.Errorf("move of process %d among %d", m.Pid, r.x.codec.NumProcesses())
	}
	switch kind, _ := r.x.stepper.Op(r.x.codec.StateID(src, m.Pid)); kind {
	case model.OpDecide:
		copy(dst, src)
		return nil
	case model.OpCoin:
		if m.Coin == model.Bottom {
			m.Coin = "0"
		}
	}
	return r.x.stepper.StepPacked(dst, src, m.Pid, m.Coin)
}
