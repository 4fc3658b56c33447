package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
)

// Worker is one shard-worker process (or goroutine, in tests). It polls
// the coordinator for slice leases and drives every slice it holds through
// the per-level protocol: catch up, checkpoint, expand, mark. It never
// sleeps between polls: a poll with nothing for it to do parks at the
// coordinator until the barrier moves. All state is private to the single
// Run goroutine; crash tolerance comes from the coordinator's checkpoints
// and retained chunks, not from anything the worker persists locally.
type Worker struct {
	ID    string
	URL   string // coordinator base URL, e.g. http://127.0.0.1:9131
	Root  model.Config
	Procs []int
	Opts  explore.Options
	// Fault, when non-nil, is a scripted crash or stall (internal/faults)
	// fired at its level during expansion — the chaos the e2e tests use.
	Fault *faults.ShardFault
	Scope *obs.Scope
	Seed  int64
}

// sliceState is the worker's in-memory state for one leased slice.
type sliceState struct {
	epoch    int
	level    int // the depth st.frontier sits at
	lastCkpt int // newest level this worker posted/loaded a checkpoint for
	visited  map[explore.Fingerprint]struct{}
	frontier []Entry
}

// Run drives the worker until the run completes, the context is
// cancelled, or an unrecoverable error occurs. Losing a lease is not an
// error — the slice is dropped and whatever the coordinator still trusts
// this worker with continues.
func (w *Worker) Run(ctx context.Context) error {
	cl := newClient(w.URL, w.ID, w.Seed)
	spec, err := cl.getSpec(ctx)
	if err != nil {
		return err
	}
	if spec.FPVersion != explore.FingerprintVersion {
		return fmt.Errorf("dist: coordinator run uses fingerprint v%d, this binary has v%d", spec.FPVersion, explore.FingerprintVersion)
	}
	if spec.Slices < 1 {
		return fmt.Errorf("dist: spec has %d slices", spec.Slices)
	}
	// The codec's dictionary ids are local to this Run; exchange chunks
	// carry fingerprints and move paths, never packed records.
	x := explore.NewExpander(model.NewPackedCodec(w.Root), w.Opts)
	rootFP := w.Opts.Fingerprint(w.Root)
	states := make(map[int]*sliceState)
	var faultFired bool
	for {
		resp, err := cl.poll(ctx)
		if err != nil {
			return err
		}
		if resp.Done {
			return nil
		}
		// Reconcile leases against the poll's authoritative list: drop
		// slices we no longer hold, then do the level for each slice still
		// missing its mark, rebuilding first the ones that are new to us or
		// whose epoch moved — our memory of those is untrustworthy.
		owned := make(map[int]bool, len(resp.Slices))
		for _, ps := range resp.Slices {
			owned[ps.Slice] = true
		}
		for s := range states {
			if !owned[s] {
				delete(states, s)
			}
		}
		for _, ps := range resp.Slices {
			if ps.Expanded {
				continue
			}
			st, ok := states[ps.Slice]
			var err error
			if !ok || st.epoch != ps.Epoch {
				st, err = w.adopt(ctx, cl, spec, rootFP, ps)
			}
			if err == nil {
				states[ps.Slice] = st
				err = w.runLevel(ctx, cl, spec, x, ps.Slice, st, resp.Level, &faultFired)
			}
			if errors.Is(err, ErrLeaseLost) {
				delete(states, ps.Slice)
				w.Scope.Event("dist_worker_lease_lost")
			} else if err != nil {
				return err
			}
		}
	}
}

// adopt builds the local state for a freshly granted (or epoch-bumped)
// slice from its last checkpoint, or, for a slice that has none yet, from
// the root: the root's own slice starts with it as the level-0 frontier.
func (w *Worker) adopt(ctx context.Context, cl *client, spec Spec, rootFP explore.Fingerprint, ps pollSlice) (*sliceState, error) {
	st := &sliceState{epoch: ps.Epoch, lastCkpt: -1, visited: make(map[explore.Fingerprint]struct{})}
	if ps.HasCkpt {
		ck, err := cl.getCheckpoint(ctx, ps.Slice)
		if err != nil {
			return nil, err
		}
		if ck.Slice != ps.Slice || ck.FPVersion != spec.FPVersion {
			return nil, fmt.Errorf("dist: checkpoint for slice %d is slice %d v%d", ps.Slice, ck.Slice, ck.FPVersion)
		}
		for _, fp := range ck.Visited {
			st.visited[fp] = struct{}{}
		}
		st.frontier = ck.Frontier
		st.level = ck.Level
		st.lastCkpt = ck.Level
	} else if explore.ShardOf(rootFP, spec.Slices) == ps.Slice {
		st.visited[rootFP] = struct{}{}
		st.frontier = []Entry{{FP: rootFP}}
	}
	w.Scope.Event("dist_worker_adopted")
	return st, nil
}

// runLevel does slice s's whole share of the level, in the order that
// makes its mark adoptable by any later owner: catch the frontier up from
// the previous level's chunks, post the start-of-level checkpoint, expand
// the frontier and post every child chunk, and only then post the mark.
// At Spec.MaxDepth the frontier is counted, never expanded.
func (w *Worker) runLevel(ctx context.Context, cl *client, spec Spec, x *explore.Expander, s int, st *sliceState, level int, faultFired *bool) error {
	if st.level == level-1 {
		if err := w.catchUp(ctx, cl, s, st); err != nil {
			return err
		}
	}
	if st.level != level {
		return fmt.Errorf("dist: slice %d at level %d while run is at %d", s, st.level, level)
	}
	var m levelMark
	if spec.MaxDepth == 0 || level < spec.MaxDepth {
		if st.lastCkpt < level {
			if err := w.postCheckpoint(ctx, cl, spec, s, st); err != nil {
				return err
			}
		}
		steps, err := w.expand(ctx, cl, spec, x, s, st, faultFired)
		if err != nil {
			return err
		}
		m.Steps = steps
	}
	m.Fresh = int64(len(st.frontier))
	for _, e := range st.frontier {
		m.Digest[0] ^= e.FP[0]
		m.Digest[1] ^= e.FP[1]
	}
	return cl.postExpanded(ctx, s, level, m)
}

// postCheckpoint posts the slice's start-of-level state.
func (w *Worker) postCheckpoint(ctx context.Context, cl *client, spec Spec, s int, st *sliceState) error {
	ck := SliceCheckpoint{Slice: s, Level: st.level, FPVersion: spec.FPVersion}
	ck.Visited = make([]explore.Fingerprint, 0, len(st.visited))
	for fp := range st.visited {
		ck.Visited = append(ck.Visited, fp)
	}
	ck.Frontier = st.frontier
	body, err := ck.Encode()
	if err != nil {
		return err
	}
	if err := cl.putCheckpoint(ctx, s, st.level, body); err != nil {
		return err
	}
	st.lastCkpt = st.level
	return nil
}

// expand expands every frontier entry of the slice, buckets the children
// by destination slice, and ships the buckets as verified chunks. It
// returns the number of transitions taken.
func (w *Worker) expand(ctx context.Context, cl *client, spec Spec, x *explore.Expander, s int, st *sliceState, faultFired *bool) (int64, error) {
	if w.Fault != nil && w.Fault.Kind == "stall" && w.Fault.At(st.level) && !*faultFired {
		*faultFired = true
		w.Fault.Trigger()
	}
	heartbeatEvery := time.Duration(spec.LeaseMS) * time.Millisecond / 5
	lastBeat := time.Now()
	outgoing := make(map[int][]Entry)
	var steps int64
	for i := range st.frontier {
		n, err := w.expandEntry(x, &st.frontier[i], spec.Slices, outgoing)
		if err != nil {
			return 0, err
		}
		steps += n
		// A big level must not cost us the lease mid-expansion.
		if time.Since(lastBeat) > heartbeatEvery {
			if err := cl.heartbeat(ctx); err != nil {
				return 0, err
			}
			lastBeat = time.Now()
		}
	}
	dests := make([]int, 0, len(outgoing))
	for d := range outgoing {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for i, d := range dests {
		body, err := EncodeFrontierChunk(st.level, s, d, outgoing[d])
		if err != nil {
			return 0, err
		}
		if err := cl.putChunk(ctx, body); err != nil {
			return 0, err
		}
		// A scripted kill fires after the first chunk lands: the torn
		// middle of an exchange, the worst moment to die.
		if i == 0 && w.Fault != nil && w.Fault.Kind == "kill" && w.Fault.At(st.level) && !*faultFired {
			*faultFired = true
			w.Fault.Trigger()
		}
	}
	return steps, nil
}

// expandEntry replays e's path once, packs the configuration it reaches,
// and appends each child to outgoing under its owning slice, in move
// order. It returns the number of transitions taken. The order is part of
// the chunks' byte determinism: a redone expansion must post identical
// bytes.
func (w *Worker) expandEntry(x *explore.Expander, e *Entry, slices int, outgoing map[int][]Entry) (int64, error) {
	rec, err := x.Pack(e.Replay(w.Root))
	if err != nil {
		return 0, err
	}
	moves := x.Moves(rec, w.Procs)
	for _, mv := range moves {
		child, err := x.Step(rec, mv)
		if err != nil {
			return 0, err
		}
		fp, _, err := x.Fingerprint(child)
		if err != nil {
			return 0, err
		}
		packed, err := model.PackMove(mv)
		if err != nil {
			return 0, err
		}
		path := make([]uint32, len(e.Path)+1)
		copy(path, e.Path)
		path[len(e.Path)] = packed
		dest := explore.ShardOf(fp, slices)
		outgoing[dest] = append(outgoing[dest], Entry{FP: fp, Path: path})
	}
	return int64(len(moves)), nil
}

// catchUp moves the slice one level on: it fetches every retained chunk
// addressed to slice s at st.level, in from-slice order (ascending — the
// order is part of the frontier's byte determinism), and makes the entries
// its visited set has not seen the new frontier. The level's chunk set is
// complete and retained, so this reproduces, byte for byte, the frontier
// whoever held the slice then would have carried into the next level.
func (w *Worker) catchUp(ctx context.Context, cl *client, s int, st *sliceState) error {
	froms, err := cl.chunkSources(ctx, st.level, s)
	if err != nil {
		return err
	}
	sort.Ints(froms)
	retries := w.Scope.Counter("dist_chunk_retries")
	var next []Entry
	for _, from := range froms {
		entries, err := cl.getChunk(ctx, st.level, from, s, func() { retries.Add(1) })
		if err != nil {
			return err
		}
		for _, e := range entries {
			if _, seen := st.visited[e.FP]; seen {
				continue
			}
			st.visited[e.FP] = struct{}{}
			next = append(next, e)
		}
	}
	st.frontier = next
	st.level++
	return nil
}
