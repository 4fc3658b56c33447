package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/server"
)

// buildBinary compiles the spacebound command once into dir.
func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "spacebound")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runBinary(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var outBuf, errBuf bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", bin, args, err, &outBuf, &errBuf)
	}
	return outBuf.String(), errBuf.String()
}

// TestKillResumeByteIdenticalWitness: a checkpointed n=4 run SIGKILLed as
// soon as it has persisted a snapshot past the first, then resumed with
// -resume, must produce a witness artifact byte-identical to an
// uninterrupted run's — and both must pass the independent replay verifier
// and sha256 sidecar check. Snapshot 1 is written before the first search
// and holds an empty memo, so waiting for a later one makes the resumed
// run replay memoised verdicts.
func TestKillResumeByteIdenticalWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	work := t.TempDir()
	bin := buildBinary(t, work)
	ckptDir := filepath.Join(work, "ckpt")
	cleanOut := filepath.Join(work, "clean.txt")
	resumedOut := filepath.Join(work, "resumed.txt")

	// Reference: uninterrupted run.
	_, cleanErr := runBinary(t, bin,
		"-protocol", "diskrace", "-n", "4", "-workers", "1", "-witness-out", cleanOut)
	if !strings.Contains(cleanErr, "witness verified by independent replay") {
		t.Fatalf("clean run did not self-verify:\n%s", cleanErr)
	}

	// Crash run: SIGKILL the process the moment snapshot 2 or later exists.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	crash := exec.CommandContext(ctx, bin,
		"-protocol", "diskrace", "-n", "4", "-workers", "1",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "50ms")
	if err := crash.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); {
		if newestSnapshotSeq(t, ckptDir) >= 2 {
			if err := crash.Process.Signal(syscall.SIGKILL); err == nil {
				killed = true
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	err := crash.Wait()
	if !killed {
		t.Fatalf("no snapshot appeared before the run ended (err=%v)", err)
	}
	if err == nil {
		t.Fatal("SIGKILLed run exited cleanly?")
	}
	snaps, _ := filepath.Glob(filepath.Join(ckptDir, "snap-*.ckpt"))
	if len(snaps) == 0 {
		t.Fatal("kill left no snapshot behind")
	}

	// Resume and compare artifacts byte for byte.
	_, resumeErr := runBinary(t, bin,
		"-protocol", "diskrace", "-n", "4", "-workers", "1",
		"-checkpoint-dir", ckptDir, "-resume", "-witness-out", resumedOut)
	var seq, verdicts int
	var stage string
	if i := strings.Index(resumeErr, "resuming from snapshot"); i < 0 {
		t.Fatalf("resume run did not load the snapshot:\n%s", resumeErr)
	} else if _, err := fmt.Sscanf(resumeErr[i:], "resuming from snapshot %d, stage %q (%d memoised verdicts)", &seq, &stage, &verdicts); err != nil || verdicts == 0 {
		t.Fatalf("resume line reports no memoised verdicts (%v):\n%s", err, resumeErr)
	}
	if !strings.Contains(resumeErr, "witness verified by independent replay") {
		t.Fatalf("resumed run did not self-verify:\n%s", resumeErr)
	}
	clean, err := os.ReadFile(cleanOut)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(resumedOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) == 0 {
		t.Fatal("clean witness artifact is empty")
	}
	if !bytes.Equal(clean, resumed) {
		t.Fatalf("resumed witness differs from uninterrupted run\nclean %d bytes, resumed %d bytes", len(clean), len(resumed))
	}
	for _, p := range []string{cleanOut, resumedOut} {
		if err := checkpoint.VerifyArtifact(p); err != nil {
			t.Fatalf("artifact %s: %v", p, err)
		}
	}
}

// newestSnapshotSeq returns the highest seq among dir's snapshot files, 0
// when there are none.
func newestSnapshotSeq(t *testing.T, dir string) int {
	t.Helper()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	newest := 0
	for _, p := range snaps {
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "snap-"), ".ckpt"))
		if err != nil {
			t.Fatalf("snapshot file name %s: %v", p, err)
		}
		newest = max(newest, seq)
	}
	return newest
}

// TestUnstartableNIsOneLineError: a process count the protocol cannot
// start with ends the proof path and the dist reference with exit 1 and a
// one-line error, not a Go stack trace.
func TestUnstartableNIsOneLineError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t, t.TempDir())
	for _, args := range [][]string{
		{"-protocol", "coinflood", "-n", "3"},
		{"-dist-sequential", "-protocol", "coinflood", "-n", "3"},
		{"-protocol", "diskrace", "-n", "65"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err %v, want exit 1\nstderr:\n%s", args, err, &stderr)
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "spacebound: ") || strings.Contains(msg, "goroutine") {
			t.Fatalf("%v: stderr is not a one-line error:\n%s", args, msg)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: stdout not empty:\n%s", args, &stdout)
		}
	}
}

// TestVerifierRejectsTamperedArtifact: flipping a byte of the witness
// artifact must be caught by the sha256 sidecar.
func TestVerifierRejectsTamperedArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	work := t.TempDir()
	bin := buildBinary(t, work)
	out := filepath.Join(work, "w.txt")
	runBinary(t, bin, "-protocol", "flood", "-n", "2", "-workers", "1", "-witness-out", out)
	if err := checkpoint.VerifyArtifact(out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 1
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.VerifyArtifact(out); err == nil {
		t.Fatal("tampered artifact passed verification")
	}
}

// TestServerSubmitMode drives -server against an in-process job server:
// the binary must submit, poll, print the served witness, and verify the
// ledger inclusion proof locally.
func TestServerSubmitMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	work := t.TempDir()
	bin := buildBinary(t, work)
	srv, err := server.New(server.Options{
		DataDir: filepath.Join(work, "data"),
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	out, errOut := runBinary(t, bin,
		"-server", ts.URL, "-protocol", "diskrace", "-n", "3", "-witness-out",
		filepath.Join(work, "remote.txt"))
	if !strings.Contains(out, "distinct registers witnessed") {
		t.Fatalf("no witness in output:\n%s", out)
	}
	if !strings.Contains(errOut, "inclusion proof checked locally") {
		t.Fatalf("no proof verification confirmation:\n%s", errOut)
	}
	if err := checkpoint.VerifyArtifact(filepath.Join(work, "remote.txt")); err != nil {
		t.Fatalf("remote witness artifact: %v", err)
	}
}
