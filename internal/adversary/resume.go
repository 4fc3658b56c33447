package adversary

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/valency"
)

// Open is the one way a checkpointed run starts: it opens the snapshot
// store in dir, decides between resuming and starting fresh, and returns
// the engine with its coordinator attached, plus the snapshot it resumed
// from (nil for a fresh run). An empty dir disables checkpointing: the
// engine is fresh and the coordinator nil (a nil-safe no-op).
//
// With resume set, Open loads the store's newest intact snapshot and
// resumes from it when Meta.Check accepts it for this run (protocol, n,
// opts.MaxConfigs, fingerprint version) — and emits a checkpoint_resume
// event on scope. When no snapshot loads, or the newest one belongs to a
// different run, Open starts fresh and still returns the engine and
// coordinator, together with an error wrapping checkpoint.ErrNoCheckpoint
// (and checkpoint.ErrStaleSnapshot for a mismatch) that says why. A caller
// that requires a resume fails with that error; one that tolerates a fresh
// start checks errors.Is(err, checkpoint.ErrNoCheckpoint) and carries on.
// Any other error means the store could not be opened or read, and the
// engine is nil.
//
// A fresh run continues the store's sequence numbers after the newest
// snapshot file on disk, so its saves are never pruned as older than
// snapshots it declined to resume.
func Open(opts explore.Options, protocol string, n int, dir string, every time.Duration, resume bool, scope *obs.Scope) (*Engine, *checkpoint.Coordinator, *checkpoint.Snapshot, error) {
	if dir == "" {
		return New(valency.New(opts)), nil, nil, nil
	}
	store, err := checkpoint.Open(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	meta := checkpoint.Meta{Protocol: protocol, N: n, MaxConfigs: opts.MaxConfigs, FPVersion: explore.FingerprintVersion}
	var miss error
	if resume {
		snap, err := store.Latest()
		if err == nil {
			err = snap.Meta.Check(meta)
		}
		switch {
		case err == nil:
			engine, err := ResumeEngine(opts, snap)
			if err != nil {
				return nil, nil, nil, err
			}
			coord := checkpoint.NewCoordinator(store, every, snap.Meta, scope)
			engine.SetCheckpointer(coord)
			scope.Event("checkpoint_resume",
				slog.Uint64("seq", snap.Meta.Seq),
				slog.String("stage", snap.Meta.Stage),
				slog.Int("memo_verdicts", snap.MemoVerdicts()))
			return engine, coord, snap, nil
		case errors.Is(err, checkpoint.ErrStaleSnapshot):
			miss = fmt.Errorf("%w: %w", checkpoint.ErrNoCheckpoint, err)
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			miss = err
		default:
			return nil, nil, nil, err
		}
	}
	meta.Seq = store.NewestSeq()
	engine := New(valency.New(opts))
	coord := checkpoint.NewCoordinator(store, every, meta, scope)
	engine.SetCheckpointer(coord)
	return engine, coord, nil, miss
}

// ResumeEngine builds an engine whose oracle starts from a loaded
// snapshot's memo, imported wholesale. The caller must pass the
// same exploration options the snapshotted run used — Open checks that
// through Meta.Check — and should attach a fresh Coordinator (seeded with
// snap.Meta) via SetCheckpointer to keep saving.
//
// Resumption is a deterministic fast-forward, not a goto: Theorem1 runs
// from the top, but every query answered before the crash hits the
// restored memo and returns the path the original search found, so with
// Workers:1 the construction replays byte-identically to where it died and
// only then starts exploring again, with the query the crash interrupted
// run again from its start.
func ResumeEngine(opts explore.Options, snap *checkpoint.Snapshot) (*Engine, error) {
	if snap == nil {
		return nil, fmt.Errorf("adversary: resume from nil snapshot")
	}
	memo, err := valency.ImportMemo(snap.Memo)
	if err != nil {
		return nil, fmt.Errorf("adversary: resume: %w", err)
	}
	return New(valency.NewWithMemo(opts, memo)), nil
}
