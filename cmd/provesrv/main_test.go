package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/valency"
)

// buildServerBinary compiles provesrv with the race detector: the e2e
// crash test must exercise the real concurrent server, instrumented.
func buildServerBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "provesrv")
	cmd := exec.Command("go", "build", "-race", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	return bin
}

// startServer launches provesrv on a fresh port over dataDir and returns
// the process, its base URL, and a buffer accumulating its stderr.
func startServer(t *testing.T, bin, dataDir string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-jobs", "2",
		"-checkpoint-every", "50ms",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The bound address is announced on stderr; read up to that line, then
	// keep draining in the background so the child never blocks on a full
	// pipe.
	var buf bytes.Buffer
	sc := bufio.NewScanner(stderr)
	base := ""
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line + "\n")
		if rest, ok := strings.CutPrefix(line, "provesrv: listening on "); ok {
			base = rest
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		t.Fatalf("server never announced its address; stderr so far:\n%s", &buf)
	}
	go func() {
		for sc.Scan() {
			buf.WriteString(sc.Text() + "\n")
		}
	}()
	return cmd, base, &buf
}

func getStatus(t *testing.T, base, id string) server.Status {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerKillRestartRecovers is the tentpole acceptance test: SIGKILL a
// provesrv with two in-flight n=4 jobs (both past their first checkpoint),
// restart it over the same data directory, and require every job to resume
// and complete with a witness byte-identical to an uninterrupted in-process
// construction — plus a verifying Merkle inclusion proof and an intact
// ledger chain.
func TestServerKillRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)
	dataDir := filepath.Join(work, "data")

	// Reference witness, computed concurrently with the server phase: an
	// uninterrupted sequential n=4 construction in this process. Both jobs
	// use the same spec, so one reference serves both.
	refCh := make(chan []byte, 1)
	refErr := make(chan error, 1)
	go func() {
		m, opts, err := core.Machine(core.ProtocolDiskRace)
		if err != nil {
			refErr <- err
			return
		}
		opts.Workers = 1
		engine := adversary.New(valency.New(opts))
		w, err := engine.Theorem1(context.Background(), m, 4)
		if err != nil {
			refErr <- err
			return
		}
		refCh <- []byte(trace.RenderWitness(w))
	}()

	srv1, base1, _ := startServer(t, bin, dataDir)
	ids := make([]string, 2)
	for i := range ids {
		resp, err := http.Post(base1+"/jobs", "application/json",
			strings.NewReader(`{"protocol":"diskrace","n":4,"workers":1}`))
		if err != nil {
			t.Fatal(err)
		}
		var st server.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids[i] = st.ID
	}

	// Kill only once BOTH jobs are genuinely in flight with persisted
	// progress: a snapshot file in each job's checkpoint store.
	bothCheckpointed := func() bool {
		for _, id := range ids {
			snaps, _ := filepath.Glob(filepath.Join(dataDir, "jobs", id, "ckpt", "snap-*.ckpt"))
			if len(snaps) == 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !bothCheckpointed() {
		if time.Now().After(deadline) {
			t.Fatal("jobs never reached their first checkpoint")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := srv1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Wait(); err == nil {
		t.Fatal("SIGKILLed server exited cleanly?")
	}

	// Restart over the same data directory: the recovery sweep must
	// re-enqueue both jobs and finish them.
	srv2, base2, stderr2 := startServer(t, bin, dataDir)
	defer srv2.Process.Kill()
	settled := func() bool {
		for _, id := range ids {
			st := getStatus(t, base2, id)
			if st.State == server.StateFailed {
				t.Fatalf("job %s failed after restart: %s (%s)", id, st.Reason, st.LastError)
			}
			if st.State != server.StateDone || st.Ledger == nil {
				return false
			}
		}
		return true
	}
	deadline = time.Now().Add(6 * time.Minute)
	for !settled() {
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not finish after restart; stderr:\n%s", stderr2)
		}
		time.Sleep(200 * time.Millisecond)
	}

	var reference []byte
	select {
	case reference = <-refCh:
	case err := <-refErr:
		t.Fatalf("reference construction: %v", err)
	case <-time.After(6 * time.Minute):
		t.Fatal("reference construction timed out")
	}

	for _, id := range ids {
		resp, err := http.Get(base2 + "/jobs/" + id + "/witness")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("witness %s: %d %v", id, resp.StatusCode, err)
		}
		if !bytes.Equal(body, reference) {
			t.Fatalf("job %s witness differs from the uninterrupted reference (%d vs %d bytes)",
				id, len(body), len(reference))
		}
		var proof ledger.Proof
		presp, err := http.Get(base2 + "/jobs/" + id + "/proof")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(presp.Body).Decode(&proof); err != nil {
			t.Fatal(err)
		}
		presp.Body.Close()
		if err := proof.Verify(); err != nil {
			t.Fatalf("job %s inclusion proof: %v", id, err)
		}
		if proof.Witness != sha256.Sum256(body) {
			t.Fatalf("job %s proof commits to different witness bytes", id)
		}
	}

	// Graceful exit this time: SIGTERM drains and exits 0.
	if err := srv2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Wait(); err != nil {
		t.Fatalf("SIGTERM drain exited non-zero: %v\nstderr:\n%s", err, stderr2)
	}
	if !strings.Contains(stderr2.String(), "drained, state persisted") {
		t.Fatalf("no drain confirmation in stderr:\n%s", stderr2)
	}

	// The ledger survived a SIGKILL and a drain: the full chain must verify
	// via the standalone mode, exit 0.
	verify := exec.Command(bin, "-verify-ledger", filepath.Join(dataDir, "ledger", "ledger.seg"))
	out, err := verify.CombinedOutput()
	if err != nil {
		t.Fatalf("-verify-ledger: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ledger intact") {
		t.Fatalf("unexpected -verify-ledger output: %s", out)
	}
}

// TestVerifyLedgerExitCode4: corruption in the ledger must exit 4, the
// repo-wide "verification failed" code.
func TestVerifyLedgerExitCode4(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)
	path := filepath.Join(work, "ledger.seg")
	l, err := ledger.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]ledger.Item{{JobID: "j-1"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Intact first.
	if out, err := exec.Command(bin, "-verify-ledger", path).CombinedOutput(); err != nil {
		t.Fatalf("intact ledger rejected: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-verify-ledger", path)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("corrupt ledger accepted:\n%s", out)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 4 {
		t.Fatalf("exit = %v, want code 4\n%s", err, out)
	}
}
