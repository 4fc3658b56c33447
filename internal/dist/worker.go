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
// the per-level expand/ingest protocol. It never sleeps between polls: a
// poll with nothing for it to do parks at the coordinator until the
// barrier moves. All state is private to the single Run goroutine; crash
// tolerance comes from the coordinator's checkpoints and retained chunks,
// not from anything the worker persists locally.
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
	level    int // the level st.frontier sits at
	lastCkpt int // newest level this worker posted/loaded a checkpoint for
	visited  map[explore.Fingerprint]struct{}
	frontier []Entry

	// Cached per-level results, so a repost after the coordinator cleared
	// our barrier marks (revoke + regrant back to us) does not recompute.
	expandLevel int // level outgoing/steps are valid for, -1 none
	outgoing    map[int][]Entry
	steps       int64
	ingestLevel int // level next/fresh/digest are valid for, -1 none
	next        []Entry
	fresh       int64
	digest      explore.Fingerprint
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
		// slices we no longer hold, adopt new grants (and regrants whose
		// epoch moved — our memory of those is untrustworthy).
		owned := make(map[int]pollSlice, len(resp.Slices))
		ids := make([]int, 0, len(resp.Slices))
		for _, ps := range resp.Slices {
			owned[ps.Slice] = ps
			ids = append(ids, ps.Slice)
		}
		sort.Ints(ids)
		for s := range states {
			if _, ok := owned[s]; !ok {
				delete(states, s)
			}
		}
		drop := func(s int, err error) error {
			if errors.Is(err, ErrLeaseLost) {
				delete(states, s)
				w.Scope.Event("dist_worker_lease_lost")
				return nil
			}
			return err
		}
		for _, s := range ids {
			ps := owned[s]
			st, ok := states[s]
			if !ok || st.epoch != ps.Epoch {
				st, err = w.adopt(ctx, cl, spec, rootFP, s, ps, resp.Level)
				if err != nil {
					if err := drop(s, err); err != nil {
						return err
					}
					continue
				}
				states[s] = st
			}
			// Promote a slice whose ingest closed the previous level.
			if st.level == resp.Level-1 {
				if st.ingestLevel != st.level {
					return fmt.Errorf("dist: slice %d at level %d with no ingest result while run is at %d", s, st.level, resp.Level)
				}
				st.frontier = st.next
				st.level = resp.Level
				st.next = nil
				st.expandLevel, st.ingestLevel = -1, -1
			} else if st.level != resp.Level {
				return fmt.Errorf("dist: slice %d at level %d while run is at %d", s, st.level, resp.Level)
			}
		}
		for _, s := range ids {
			st, ok := states[s]
			if !ok {
				continue
			}
			ps := owned[s]
			var err error
			if !ps.due(resp.Phase) {
				continue
			}
			if resp.Phase == phaseExpand {
				err = w.expand(ctx, cl, spec, x, s, st, resp.Level, &faultFired)
			} else {
				err = w.ingest(ctx, cl, s, st, resp.Level)
			}
			if err != nil {
				if err := drop(s, err); err != nil {
					return err
				}
			}
		}
	}
}

// adopt builds the local state for a freshly granted (or epoch-bumped)
// slice: load its last checkpoint — or seed from the root at level 0 —
// then catch up to the run's level by replaying the retained exchange
// chunks, and post the start-of-level checkpoint so the next owner after
// us starts no further back than we did.
func (w *Worker) adopt(ctx context.Context, cl *client, spec Spec, rootFP explore.Fingerprint, s int, ps pollSlice, level int) (*sliceState, error) {
	st := &sliceState{epoch: ps.Epoch, lastCkpt: -1, expandLevel: -1, ingestLevel: -1}
	st.visited = make(map[explore.Fingerprint]struct{})
	if ps.HasCkpt {
		ck, err := cl.getCheckpoint(ctx, s)
		if err != nil {
			return nil, err
		}
		if ck.Slice != s || ck.FPVersion != spec.FPVersion {
			return nil, fmt.Errorf("dist: checkpoint for slice %d is slice %d v%d", s, ck.Slice, ck.FPVersion)
		}
		for _, fp := range ck.Visited {
			st.visited[fp] = struct{}{}
		}
		st.frontier = ck.Frontier
		st.level = ck.Level
		st.lastCkpt = ck.Level
	} else {
		if level != 0 {
			return nil, fmt.Errorf("dist: slice %d granted at level %d with no checkpoint", s, level)
		}
		if explore.ShardOf(rootFP, spec.Slices) == s {
			st.visited[rootFP] = struct{}{}
			st.frontier = []Entry{{FP: rootFP}}
		}
	}
	if st.level < level {
		if st.level != level-1 {
			return nil, fmt.Errorf("dist: slice %d checkpoint at level %d is too old for level %d", s, st.level, level)
		}
		// Catch-up: the previous level's chunk set is complete and
		// retained, so ingesting it reproduces — byte for byte — the
		// frontier the dead owner would have carried into this level.
		next, _, _, err := w.ingestChunks(ctx, cl, s, st, st.level)
		if err != nil {
			return nil, err
		}
		st.frontier = next
		st.level = level
	}
	if st.lastCkpt < st.level {
		if err := w.postCheckpoint(ctx, cl, spec, s, st); err != nil {
			return nil, err
		}
	}
	w.Scope.Event("dist_worker_adopted")
	return st, nil
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

// expand runs the slice's expand phase at level: expand every frontier
// entry, bucketing the children by destination slice; then ship the
// buckets as verified chunks and post the expand barrier mark with the
// transition count.
func (w *Worker) expand(ctx context.Context, cl *client, spec Spec, x *explore.Expander, s int, st *sliceState, level int, faultFired *bool) error {
	if st.lastCkpt < level {
		if err := w.postCheckpoint(ctx, cl, spec, s, st); err != nil {
			return err
		}
	}
	if w.Fault != nil && w.Fault.Kind == "stall" && w.Fault.At(level) && !*faultFired {
		*faultFired = true
		w.Fault.Trigger()
	}
	if st.expandLevel != level {
		heartbeatEvery := time.Duration(spec.LeaseMS) * time.Millisecond / 5
		lastBeat := time.Now()
		outgoing := make(map[int][]Entry)
		var steps int64
		for i := range st.frontier {
			n, err := w.expandEntry(x, &st.frontier[i], spec.Slices, outgoing)
			if err != nil {
				return err
			}
			steps += n
			// A big level must not cost us the lease mid-expansion.
			if time.Since(lastBeat) > heartbeatEvery {
				if err := cl.heartbeat(ctx); err != nil {
					return err
				}
				lastBeat = time.Now()
			}
		}
		st.outgoing = outgoing
		st.steps = steps
		st.expandLevel = level
	}
	dests := make([]int, 0, len(st.outgoing))
	for d := range st.outgoing {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for i, d := range dests {
		body, err := EncodeFrontierChunk(level, s, d, st.outgoing[d])
		if err != nil {
			return err
		}
		if err := cl.putChunk(ctx, body); err != nil {
			return err
		}
		// A scripted kill fires after the first chunk lands: the torn
		// middle of an exchange, the worst moment to die.
		if i == 0 && w.Fault != nil && w.Fault.Kind == "kill" && w.Fault.At(level) && !*faultFired {
			*faultFired = true
			w.Fault.Trigger()
		}
	}
	return cl.postExpanded(ctx, s, level, st.steps)
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

// ingestChunks fetches and ingests every retained chunk addressed to slice
// s at the level, in from-slice order (ascending — the order is part of
// the frontier's byte determinism), deduplicating against the slice's
// visited set. Returns the fresh entries in ingest order with their count
// and XOR digest.
func (w *Worker) ingestChunks(ctx context.Context, cl *client, s int, st *sliceState, level int) ([]Entry, int64, explore.Fingerprint, error) {
	froms, err := cl.chunkSources(ctx, level, s)
	if err != nil {
		return nil, 0, explore.Fingerprint{}, err
	}
	sort.Ints(froms)
	retries := w.Scope.Counter("dist_chunk_retries")
	var next []Entry
	var fresh int64
	var digest explore.Fingerprint
	for _, from := range froms {
		entries, err := cl.getChunk(ctx, level, from, s, func() { retries.Add(1) })
		if err != nil {
			return nil, 0, explore.Fingerprint{}, err
		}
		for _, e := range entries {
			if _, seen := st.visited[e.FP]; seen {
				continue
			}
			st.visited[e.FP] = struct{}{}
			next = append(next, e)
			fresh++
			digest[0] ^= e.FP[0]
			digest[1] ^= e.FP[1]
		}
	}
	return next, fresh, digest, nil
}

// ingest runs the slice's ingest phase at level and posts the barrier mark
// with the fresh count and digest the coordinator folds into the witness.
func (w *Worker) ingest(ctx context.Context, cl *client, s int, st *sliceState, level int) error {
	if st.ingestLevel != level {
		next, fresh, digest, err := w.ingestChunks(ctx, cl, s, st, level)
		if err != nil {
			return err
		}
		st.next, st.fresh, st.digest = next, fresh, digest
		st.ingestLevel = level
	}
	return cl.postIngested(ctx, s, level, st.fresh, st.digest)
}
