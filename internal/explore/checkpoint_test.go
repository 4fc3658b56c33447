package explore

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/model"
)

// visitRec is one visit callback observation, enough to compare two runs
// for exact equivalence.
type visitRec struct {
	ID    int
	Depth int
	Key   string
}

func collectVisits(t *testing.T, c model.Config, p []int, opts Options) (*Result, []visitRec) {
	t.Helper()
	var visits []visitRec
	res, err := Reach(context.Background(), c, p, opts, func(v Visit) bool {
		visits = append(visits, visitRec{ID: v.ID, Depth: v.Depth, Key: v.Config.Key()})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, visits
}

func pathsOf(t *testing.T, res *Result) []model.Path {
	t.Helper()
	paths := make([]model.Path, res.Count)
	for id := 0; id < res.Count; id++ {
		p, ok := res.PathTo(id)
		if !ok {
			t.Fatalf("PathTo(%d) out of range", id)
		}
		paths[id] = p
	}
	return paths
}

// TestReachSnapshotResumeEquivalent freezes a search at a mid-level
// boundary and completes it from the checkpoint: the resumed run must
// visit exactly the not-yet-visited configurations, in the same order with
// the same ids, and end with identical counters and witness paths.
func TestReachSnapshotResumeEquivalent(t *testing.T) {
	c := model.NewConfig(chainMachine{}, []model.Value{"3", "3"})
	p := []int{0, 1}
	opts := Options{Workers: 1}

	fullRes, fullVisits := collectVisits(t, c, p, opts)

	var cp *checkpoint.QueryData
	snapOpts := opts
	snapOpts.Snapshot = func(sn *Snapshotter) {
		if cp == nil && sn.Depth() == 2 {
			data := sn.Data()
			cp = data
		}
	}
	snapRes, _ := collectVisits(t, c, p, snapOpts)
	if cp == nil {
		t.Fatal("snapshot hook never captured depth 2")
	}
	if snapRes.Count != fullRes.Count {
		t.Fatalf("snapshotted run Count = %d, want %d", snapRes.Count, fullRes.Count)
	}
	if cp.Count >= fullRes.Count {
		t.Fatalf("checkpoint Count %d not mid-search (full %d)", cp.Count, fullRes.Count)
	}
	if len(cp.Frontier) == 0 || len(cp.Fingerprints) != cp.Count {
		t.Fatalf("checkpoint frontier %d / fingerprints %d / count %d inconsistent",
			len(cp.Frontier), len(cp.Fingerprints), cp.Count)
	}

	resumeOpts := opts
	resumeOpts.ResumeFrom = cp
	resRes, resVisits := collectVisits(t, c, p, resumeOpts)

	if !reflect.DeepEqual(resVisits, fullVisits[cp.Count:]) {
		t.Fatalf("resumed visits diverge:\n got %v\nwant %v", resVisits, fullVisits[cp.Count:])
	}
	if resRes.Count != fullRes.Count || resRes.Depth != fullRes.Depth || resRes.Steps != fullRes.Steps {
		t.Fatalf("resumed result (count %d depth %d steps %d) != full (count %d depth %d steps %d)",
			resRes.Count, resRes.Depth, resRes.Steps, fullRes.Count, fullRes.Depth, fullRes.Steps)
	}
	if !reflect.DeepEqual(pathsOf(t, resRes), pathsOf(t, fullRes)) {
		t.Fatal("resumed witness paths diverge from uninterrupted run")
	}
}

// TestResultDepthReported checks the new Depth counter against the known
// longest schedule of the chain machine (budgets sum).
func TestResultDepthReported(t *testing.T) {
	c := model.NewConfig(chainMachine{}, []model.Value{"2", "3"})
	res, err := Reach(context.Background(), c, []int{0, 1}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 5 {
		t.Fatalf("Depth = %d, want 5", res.Depth)
	}
}

// TestRestoreRejectsInconsistentCheckpoint exercises restore's validation.
func TestRestoreRejectsInconsistentCheckpoint(t *testing.T) {
	c := model.NewConfig(chainMachine{}, []model.Value{"2", "2"})
	bad := &checkpoint.QueryData{Depth: 1, Count: 5, Nodes: []checkpoint.Node{{}}}
	if _, err := Reach(context.Background(), c, []int{0, 1}, Options{ResumeFrom: bad}, nil); err == nil {
		t.Fatal("resume from inconsistent checkpoint succeeded")
	}
}
