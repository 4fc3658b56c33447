package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestChaosCoordinatorCrashByteIdenticalWitness is the crash-recovery
// acceptance test: one chaos schedule SIGKILLs the coordinator mid-level AND
// kills the worker holding every lease, on DiskRace n=4. The driver itself
// asserts the hard conditions — the restarted coordinator resumes from the
// journal at the exact level, no healthy worker exits during the
// outage, the victim dies by signal, and the merged witness is byte-identical
// to the sequential reference (sha256 sidecar included) — so the test runs
// the real binary and requires exit 0 plus the transcript's key lines.
func TestChaosCoordinatorCrashByteIdenticalWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	work := t.TempDir()
	bin := buildBinary(t, work)
	journal := filepath.Join(work, "journal")
	witnessOut := filepath.Join(work, "witness.txt")

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin,
		"-chaos", "coord:kill@level=4:restart=500ms; worker:victim:kill@level=3; worker:steady-1; worker:steady-2; seed=7",
		"-protocol", "diskrace", "-n", "4",
		"-dist-slices", "3", "-dist-max-depth", "7",
		"-dist-lease", "500ms", "-dist-linger", "1s",
		"-dist-journal", journal, "-witness-out", witnessOut)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("chaos run failed: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	transcript := stderr.String()
	// The kill fires at the first status poll at or past the scripted
	// level, so the exact level may overshoot on a fast machine; the
	// driver itself asserts recovered-level >= killed-at-level.
	for _, want := range []string{
		"SIGKILL coordinator at level",
		"holds a prior run, recovering",
		"recovered to level",
		"generation 1",
		"worker victim: killed by signal, as scripted",
		"worker steady-1: ok",
		"worker steady-2: ok",
		"witness byte-identical to the sequential reference",
	} {
		if !strings.Contains(transcript, want) {
			t.Errorf("chaos transcript is missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("stderr:\n%s", transcript)
	}

	// The artifact must match an independently computed reference.
	seqOut := filepath.Join(work, "seq.txt")
	runBinary(t, bin,
		"-dist-sequential", "-protocol", "diskrace", "-n", "4",
		"-dist-max-depth", "7", "-witness-out", seqOut)
	got, err := os.ReadFile(witnessOut)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(seqOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("chaos witness differs from sequential reference:\n--- chaos\n%s--- sequential\n%s", got, ref)
	}

	// The journal survives the run: snapshots plus WAL segments on disk.
	entries, err := os.ReadDir(journal)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, wals int
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Name(), "state-") && strings.HasSuffix(e.Name(), ".ckpt"):
			snaps++
		case strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg"):
			wals++
		}
	}
	if snaps == 0 || wals == 0 {
		t.Fatalf("journal directory has %d snapshots and %d WAL segments, want both > 0:\n%v", snaps, wals, entries)
	}
}

// TestChaosVacuousKillIsAnError: a schedule whose coordinator kill level is
// beyond the run's depth must fail loudly instead of silently testing
// nothing.
func TestChaosVacuousKillIsAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	work := t.TempDir()
	bin := buildBinary(t, work)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin,
		"-chaos", "coord:kill@level=40; worker:w1",
		"-protocol", "diskrace", "-n", "3",
		"-dist-slices", "2", "-dist-max-depth", "4",
		"-dist-linger", "200ms",
		"-dist-journal", filepath.Join(work, "journal"))
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("vacuous chaos schedule exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "before the scripted coordinator kill") {
		t.Fatalf("unexpected failure mode: %v\n%s", err, out)
	}
}
