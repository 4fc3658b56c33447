package adversary

import (
	"errors"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/explore"
)

// saveStale writes snapshots seq 4 and 5 of a flood n=3 run capped at 99
// configurations into dir: files a run with a different cap must decline
// to resume.
func saveStale(t *testing.T, dir string) {
	t.Helper()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(4); seq <= 5; seq++ {
		meta := checkpoint.Meta{Protocol: "flood", N: 3, MaxConfigs: 99, FPVersion: explore.FingerprintVersion, Seq: seq}
		if _, err := store.Save(&checkpoint.Snapshot{Meta: meta}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenFreshRunOverStaleSnapshotsPersists holds Open to the seq rule: a
// run that starts fresh over older snapshots continues after the newest
// file, so its own saves survive the store's keep-2 pruning. Numbering
// from seq 1 instead would have each new snapshot pruned as soon as it was
// written, leaving the stale seq 5 as the store's latest.
func TestOpenFreshRunOverStaleSnapshotsPersists(t *testing.T) {
	for _, resume := range []bool{true, false} {
		dir := t.TempDir()
		saveStale(t, dir)
		_, coord, snap, err := Open(explore.Options{}, "flood", 3, dir, 0, resume, nil)
		if resume {
			if !errors.Is(err, checkpoint.ErrNoCheckpoint) || !errors.Is(err, checkpoint.ErrStaleSnapshot) {
				t.Fatalf("resume over a stale store: err = %v, want ErrNoCheckpoint and ErrStaleSnapshot", err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			t.Fatalf("resume=%t: resumed stale snapshot %d", resume, snap.Meta.Seq)
		}
		for i := 0; i < 2; i++ {
			if err := coord.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		store, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		latest, err := store.Latest()
		if err != nil {
			t.Fatal(err)
		}
		if latest.Meta.Seq != 7 || latest.Meta.MaxConfigs != 0 {
			t.Fatalf("resume=%t: latest is seq %d max-configs %d, want the new run's seq 7 max-configs 0",
				resume, latest.Meta.Seq, latest.Meta.MaxConfigs)
		}
	}
}

// TestOpenResumesMatchingSnapshot resumes a snapshot written for the same
// run and continues its sequence; an empty store under resume reports
// ErrNoCheckpoint alone, and an empty dir disables checkpointing.
func TestOpenResumesMatchingSnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, err := Open(explore.Options{}, "flood", 3, dir, 0, true, nil); !errors.Is(err, checkpoint.ErrNoCheckpoint) ||
		errors.Is(err, checkpoint.ErrStaleSnapshot) {
		t.Fatalf("resume over an empty store: err = %v, want ErrNoCheckpoint only", err)
	}
	saveStale(t, dir)
	engine, coord, snap, err := Open(explore.Options{MaxConfigs: 99}, "flood", 3, dir, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if engine == nil || snap == nil || snap.Meta.Seq != 5 {
		t.Fatalf("resume: engine %v snapshot %+v, want the seq 5 snapshot", engine, snap)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.NewestSeq(); got != 6 {
		t.Fatalf("resumed run saved seq %d, want 6", got)
	}

	engine, coord, snap, err = Open(explore.Options{}, "flood", 3, "", 0, false, nil)
	if err != nil || engine == nil || coord != nil || snap != nil {
		t.Fatalf("empty dir: engine %v coordinator %v snapshot %v err %v, want an engine alone", engine, coord, snap, err)
	}
}
