package adversary

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/valency"
)

// witnessView strips a Theorem1Witness to its artifact-visible fields —
// everything trace.Chain/Theorem1DOT render. OracleStats is excluded by
// design: a resumed run answers most queries from the restored memo, so
// its work counters legitimately differ while the witness must not.
type witnessView struct {
	Protocol  string
	N         int
	Inputs    []string
	Execution string
	Covered   map[int]int
	Registers int
	Rounds    int
	Phases    []Phase
}

func viewOf(w *Theorem1Witness) witnessView {
	v := witnessView{
		Protocol:  w.Protocol,
		N:         w.N,
		Covered:   w.Covered,
		Registers: w.Registers,
		Rounds:    w.Rounds,
		Phases:    w.Phases,
	}
	for _, in := range w.Inputs {
		v.Inputs = append(v.Inputs, string(in))
	}
	for _, m := range w.Execution {
		v.Execution += string(rune('a'+m.Pid)) + string(m.Coin) + "."
	}
	return v
}

// TestTheorem1CrashResumeDeterministic is the package-level half of the
// tentpole's acceptance criterion: a Workers:1 DiskRace n=3 construction
// killed mid-run (via context cancellation triggered by a checkpoint save)
// and resumed from the snapshot must produce a witness identical, field by
// field, to an uninterrupted run's.
func TestTheorem1CrashResumeDeterministic(t *testing.T) {
	opts := explore.Options{
		Workers: 1,
		Canon:   consensus.DiskRace{},
	}
	meta := checkpoint.Meta{Protocol: "diskrace", N: 3, MaxConfigs: opts.MaxConfigs}

	// Reference: uninterrupted run.
	ref, err := New(valency.New(opts)).Theorem1(context.Background(), consensus.DiskRace{}, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Crash run: checkpoint on every opportunity, cancel after the 5th
	// save — mid-construction, well before the theorem completes.
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord := checkpoint.NewCoordinator(store, 0, meta, nil)
	saves := 0
	coord.AfterSave = func(*checkpoint.Snapshot) {
		saves++
		if saves == 5 {
			cancel()
		}
	}
	crashed := New(valency.New(opts))
	crashed.SetCheckpointer(coord)
	if _, err := crashed.Theorem1(ctx, consensus.DiskRace{}, 3); err == nil {
		t.Fatal("cancelled run completed — cancel too late to exercise resume")
	} else {
		var p *Partial
		if !errors.As(err, &p) {
			t.Fatalf("cancelled run should fail with *Partial, got %v", err)
		}
	}

	// Resume from the newest snapshot and run to completion.
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Protocol != meta.Protocol || snap.Meta.N != meta.N {
		t.Fatalf("snapshot meta %+v does not identify the run", snap.Meta)
	}
	if snap.Meta.Stage == "" {
		t.Fatal("snapshot carries no proof stage tag")
	}
	resumed, err := ResumeEngine(opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	resumedCoord := checkpoint.NewCoordinator(store, time.Hour, snap.Meta, nil)
	resumed.SetCheckpointer(resumedCoord)
	got, err := resumed.Theorem1(context.Background(), consensus.DiskRace{}, 3)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(viewOf(got), viewOf(ref)) {
		t.Fatalf("resumed witness diverges from uninterrupted run:\n got %+v\nwant %+v", viewOf(got), viewOf(ref))
	}
	// The memo fast-forward must actually have saved work: the resumed
	// run re-explores only what the crash destroyed.
	if rs, fs := resumed.Oracle().Stats(), ref.OracleStats; rs.Configs >= fs.Configs {
		t.Fatalf("resumed run explored %d configs, uninterrupted %d — memo fast-forward did nothing", rs.Configs, fs.Configs)
	}
	if resumedCoord.Err() != nil {
		t.Fatalf("resumed coordinator save error: %v", resumedCoord.Err())
	}
}

// TestCoordinatorSavesAreLoadable round-trips memo-bearing snapshots
// through a real construction: every file the coordinator writes must load
// and decode.
func TestCoordinatorSavesAreLoadable(t *testing.T) {
	opts := explore.Options{Workers: 1}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := checkpoint.NewCoordinator(store, 0, checkpoint.Meta{Protocol: "flood", N: 3}, nil)
	e := New(valency.New(opts))
	e.SetCheckpointer(coord)
	if _, err := e.Theorem1(context.Background(), consensus.Flood{}, 3); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Memo == nil || len(snap.Memo.Verdicts) == 0 {
		t.Fatal("final snapshot carries no memo verdicts")
	}
	memo, err := valency.ImportMemo(snap.Memo)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh oracle over the imported memo must answer every replayed
	// query from memo alone: zero new configurations explored.
	replay := New(valency.NewWithMemo(opts, memo))
	if _, err := replay.Theorem1(context.Background(), consensus.Flood{}, 3); err != nil {
		t.Fatal(err)
	}
	if st := replay.Oracle().Stats(); st.Configs != 0 {
		t.Fatalf("replay over imported memo explored %d configs, want 0", st.Configs)
	}
}

// pollCancelCtx counts its Err polls and cancels itself at poll k, so a
// Workers:1 run stops at the same point of its computation every time.
// With k 0 it only counts.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64
	k      int64
}

func newPollCancelCtx(k int64) *pollCancelCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCancelCtx{Context: ctx, cancel: cancel, k: k}
}

func (c *pollCancelCtx) Err() error {
	if c.polls.Add(1) == c.k {
		c.cancel()
	}
	return c.Context.Err()
}

// TestTheorem1MidQueryCrashResume cuts a Workers:1 DiskRace n=4
// construction at several points of its run, some of them inside a
// valency query's search. Snapshots are taken only between queries, so
// the resumed run replays the memo and runs the interrupted query again
// from its start; its witness must equal an uninterrupted run's.
func TestTheorem1MidQueryCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("five DiskRace n=4 constructions")
	}
	opts := explore.Options{Workers: 1, Canon: consensus.DiskRace{}}
	meta := checkpoint.Meta{Protocol: "diskrace", N: 4, MaxConfigs: opts.MaxConfigs}

	counter := newPollCancelCtx(0)
	defer counter.cancel()
	ref, err := New(valency.New(opts)).Theorem1(counter, consensus.DiskRace{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := counter.polls.Load()

	inQuery := 0
	for _, k := range []int64{total / 5, total / 2, total * 4 / 5} {
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ctx := newPollCancelCtx(k)
		coord := checkpoint.NewCoordinator(store, 0, meta, nil)
		crashed := New(valency.New(opts))
		crashed.SetCheckpointer(coord)
		_, err = crashed.Theorem1(ctx, consensus.DiskRace{}, 4)
		ctx.cancel()
		var p *Partial
		if !errors.As(err, &p) || !errors.Is(err, context.Canceled) {
			t.Fatalf("poll %d of %d: cut run returned %v, want a cancelled *Partial", k, total, err)
		}
		if msg := err.Error(); strings.Contains(msg, "valency query") && strings.Contains(msg, "reach cancelled after") {
			inQuery++
		}
		t.Logf("poll %d of %d: %v", k, total, err)

		snap, err := store.Latest()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeEngine(opts, snap)
		if err != nil {
			t.Fatal(err)
		}
		resumed.SetCheckpointer(checkpoint.NewCoordinator(store, time.Hour, snap.Meta, nil))
		got, err := resumed.Theorem1(context.Background(), consensus.DiskRace{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viewOf(got), viewOf(ref)) {
			t.Fatalf("poll %d of %d: resumed witness diverges from uninterrupted run:\n got %+v\nwant %+v", k, total, viewOf(got), viewOf(ref))
		}
	}
	if inQuery == 0 {
		t.Fatalf("no cut of %d polls landed inside a valency query's search", total)
	}
}
