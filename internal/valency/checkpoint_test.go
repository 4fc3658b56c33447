package valency

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/model"
)

// TestMemoExportImportRoundtrip: exporting, importing and re-exporting a
// memo is the identity, and an oracle over the imported memo answers the
// original queries without exploring a single configuration — with the
// exact same verdicts and witness paths.
func TestMemoExportImportRoundtrip(t *testing.T) {
	o := New(explore.Options{Workers: 1})
	ctx := context.Background()
	c := floodConfig("0", "1", "1")
	sets := [][]int{{0}, {1, 2}, {0, 1, 2}}
	want := make([]*Verdict, len(sets))
	for i, set := range sets {
		v, err := o.Decidable(ctx, c, set)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	if _, _, err := o.SoloDeciding(ctx, c, 2); err != nil {
		t.Fatal(err)
	}

	exported := ExportMemo(o.memo)
	imported, err := ImportMemo(exported)
	if err != nil {
		t.Fatal(err)
	}
	if again := ExportMemo(imported); !reflect.DeepEqual(again, exported) {
		t.Fatalf("export/import/export drifted:\n got %+v\nwant %+v", again, exported)
	}

	replay := NewWithMemo(explore.Options{Workers: 1}, imported)
	for i, set := range sets {
		v, err := replay.Decidable(ctx, c, set)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.Decidable, want[i].Decidable) {
			t.Fatalf("set %v: imported verdict %v, want %v", set, v.Decidable, want[i].Decidable)
		}
		if !reflect.DeepEqual(v.Witness, want[i].Witness) {
			t.Fatalf("set %v: imported witness paths differ", set)
		}
	}
	if st := replay.Stats(); st.Configs != 0 {
		t.Fatalf("replay explored %d configs, want 0", st.Configs)
	}

	// Importing inconsistent data must fail, not mis-load.
	bad := &checkpoint.MemoData{Verdicts: []checkpoint.VerdictRec{{Values: []string{"0"}}}}
	if _, err := ImportMemo(bad); err == nil {
		t.Fatal("verdict with values but no witness imported cleanly")
	}
}

// TestInFlightQueryResume is the not-from-level-0 guarantee: a Decidable
// query cancelled mid-BFS leaves a snapshot whose QueryData re-enters the
// search at its stored depth, and the resumed query returns the identical
// verdict while exploring strictly fewer configurations than a full run.
func TestInFlightQueryResume(t *testing.T) {
	ctx := context.Background()
	// Unanimous inputs: solo seeding only proves 1 is decidable, so ruling
	// out 0 forces the exhaustive BFS the crash interrupts.
	c := floodConfig("1", "1", "1")
	pids := []int{0, 1, 2}

	ref := New(explore.Options{Workers: 1})
	wantVerdict, err := ref.Decidable(ctx, c, pids)
	if err != nil {
		t.Fatal(err)
	}
	fullConfigs := ref.Stats().Configs

	// Crash run: cancel as soon as a snapshot carries in-flight state at
	// depth >= 2 — deep enough that resuming from level 0 would be
	// distinguishable.
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	coord := checkpoint.NewCoordinator(store, 0, checkpoint.Meta{Protocol: "flood", N: 3}, nil)
	coord.AfterSave = func(s *checkpoint.Snapshot) {
		if s.Query != nil && s.Query.Depth >= 2 {
			cancel()
		}
	}
	crashed := New(explore.Options{Workers: 1})
	crashed.SetCheckpointer(coord)
	if _, err := crashed.Decidable(runCtx, c, pids); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}

	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Query == nil {
		t.Fatal("snapshot carries no in-flight query")
	}
	if snap.Query.Depth < 2 {
		t.Fatalf("in-flight query frozen at depth %d, want >= 2", snap.Query.Depth)
	}
	if snap.Query.Count <= 0 || len(snap.Query.Frontier) == 0 {
		t.Fatalf("in-flight query state empty: %d visited, %d frontier", snap.Query.Count, len(snap.Query.Frontier))
	}

	// Resume: memo + armed query; the verdict must match and the search
	// must not restart from the root.
	memo, err := ImportMemo(snap.Memo)
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewWithMemo(explore.Options{Workers: 1}, memo)
	resumed.SetResume(snap.Query)
	v, err := resumed.Decidable(ctx, c, pids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Decidable, wantVerdict.Decidable) {
		t.Fatalf("resumed verdict %v, want %v", v.Decidable, wantVerdict.Decidable)
	}
	for val, path := range v.Witness {
		end := model.RunPath(c, path)
		if !end.DecidedValues()[val] {
			t.Fatalf("resumed witness for %s does not decide it", string(val))
		}
	}
	got := resumed.Stats().Configs
	if got >= fullConfigs {
		t.Fatalf("resumed query explored %d configs, full run %d — it restarted from level 0", got, fullConfigs)
	}
	if got == 0 {
		t.Fatal("resumed query explored nothing — memo answered it, in-flight path untested")
	}
	if dl := resumed.Stats().DeepestLevel; dl < snap.Query.Depth {
		t.Fatalf("resumed DeepestLevel %d below the resume depth %d", dl, snap.Query.Depth)
	}
}

// TestResumeIgnoredOnKeyMismatch: an armed in-flight query must only match
// the exact (fingerprint, pids, cap) it froze; any other query runs fresh
// and the armed state survives for the real match.
func TestResumeIgnoredOnKeyMismatch(t *testing.T) {
	ctx := context.Background()
	c := floodConfig("1", "1", "1")

	// Freeze an in-flight query for {0,1,2}.
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	coord := checkpoint.NewCoordinator(store, 0, checkpoint.Meta{}, nil)
	coord.AfterSave = func(s *checkpoint.Snapshot) {
		if s.Query != nil && s.Query.Depth >= 2 {
			cancel()
		}
	}
	crashed := New(explore.Options{Workers: 1})
	crashed.SetCheckpointer(coord)
	crashed.Decidable(runCtx, c, []int{0, 1, 2})
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Query == nil {
		t.Fatal("no in-flight query frozen")
	}

	resumed := New(explore.Options{Workers: 1})
	resumed.SetResume(snap.Query)
	// A different process set must not consume the armed query.
	if _, err := resumed.Decidable(ctx, c, []int{0}); err != nil {
		t.Fatal(err)
	}
	if resumed.resume == nil {
		t.Fatal("mismatched query consumed the armed in-flight state")
	}
	// The matching query does consume it.
	if _, err := resumed.Decidable(ctx, c, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if resumed.resume != nil {
		t.Fatal("matching query left the in-flight state armed")
	}
}

// TestInFlightBatchResume: a batch whose solo seeding leaves one candidate
// open runs that candidate's search as a one-set Reach, so it snapshots in
// flight and resumes past level 0 like a Decidable query does.
func TestInFlightBatchResume(t *testing.T) {
	ctx := context.Background()
	// {0,1} is bivalent by solo certificates; {1,2} has only input 1 and
	// needs the exhaustive search to rule out 0.
	c := floodConfig("0", "1", "1")
	cands := [][]int{{1, 2}, {0, 1}}

	ref := New(explore.Options{Workers: 1})
	want, err := ref.DecideBatch(ctx, c, cands)
	if err != nil {
		t.Fatal(err)
	}

	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	coord := checkpoint.NewCoordinator(store, 0, checkpoint.Meta{Protocol: "flood", N: 3}, nil)
	coord.AfterSave = func(s *checkpoint.Snapshot) {
		if s.Query != nil && s.Query.Depth >= 2 {
			cancel()
		}
	}
	crashed := New(explore.Options{Workers: 1})
	crashed.SetCheckpointer(coord)
	if _, err := crashed.DecideBatch(runCtx, c, cands); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Query == nil || snap.Query.Depth < 2 {
		t.Fatalf("in-flight state %+v, want a query frozen at depth >= 2", snap.Query)
	}

	memo, err := ImportMemo(snap.Memo)
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewWithMemo(explore.Options{Workers: 1}, memo)
	resumed.SetResume(snap.Query)
	got, err := resumed.DecideBatch(ctx, c, cands)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.resume != nil {
		t.Fatal("the open candidate's search did not consume the in-flight state")
	}
	for i := range cands {
		if !reflect.DeepEqual(got[i].Decidable, want[i].Decidable) {
			t.Fatalf("candidate %v: resumed verdict %v, want %v", cands[i], got[i].Decidable, want[i].Decidable)
		}
	}
	if full, st := ref.Stats().Configs, resumed.Stats().Configs; st == 0 || st >= full {
		t.Fatalf("resumed batch explored %d configs, full run %d: want some, and fewer than a restart", st, full)
	}
}
