package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dist"
	"repro/internal/faults"
)

// runChaos executes a scripted failure schedule against a real distributed
// run: it computes the sequential reference witness in-process, then spawns
// a journalled coordinator and the schedule's workers as child processes,
// SIGKILLs the coordinator once the barrier reaches the scripted level,
// restarts it from the same journal directory, and asserts the outcome —
// every scripted victim died by signal, every healthy worker rode through
// the outage and exited 0, and the merged witness is byte-identical to the
// reference. The canonical schedule is logged up front so a failing run can
// be replayed verbatim.
func runChaos(ctx context.Context, df distFlags, protocol string, n int, witnessOut string) error {
	sched, err := faults.ParseChaosSchedule(df.chaos)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spacebound: chaos schedule: %s\n", sched.String())
	// A chaos run that wedges (a schedule that kills everything, say) must
	// not hang the harness forever.
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 10*time.Minute)
		defer cancel()
	}
	// Every child is started under ctx: cancelling it on the way out kills
	// whatever still runs, and the driver returns only once all of them
	// have exited, so none outlives it writing into the work directory.
	ctx, stopChildren := context.WithCancel(ctx)
	var children sync.WaitGroup
	defer func() {
		stopChildren()
		children.Wait()
	}()
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	// Work directory: the journal must survive the coordinator's death, so
	// it lives here, not in the child's memory. Kept on failure for
	// post-mortems, removed on success unless the caller named it.
	journalDir := df.journalDir
	keepDir := journalDir != ""
	var workDir string
	if journalDir == "" {
		workDir, err = os.MkdirTemp("", "spacebound-chaos-")
		if err != nil {
			return err
		}
		journalDir = filepath.Join(workDir, "journal")
	} else {
		workDir = filepath.Dir(journalDir)
	}
	witnessPath := filepath.Join(workDir, "chaos-witness.txt")
	fmt.Fprintf(os.Stderr, "spacebound: chaos journal at %s (kept on failure)\n", journalDir)

	// Sequential reference first: the oracle the chaotic run must match.
	ref, err := chaosReference(ctx, df, protocol, n)
	if err != nil {
		return err
	}

	// Reserve a concrete address: the restarted coordinator must come back
	// on the SAME host:port or the workers' retries would never find it.
	// Closing the probe listener races other processes for the port, but
	// the window is microseconds and a collision fails loudly at bind.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := probe.Addr().String()
	_ = probe.Close()
	base := "http://" + addr

	coordArgs := []string{
		"-coordinator", addr, "-protocol", protocol, "-n", strconv.Itoa(n),
		"-dist-slices", strconv.Itoa(df.slices),
		"-dist-max-depth", strconv.Itoa(df.maxDepth),
		"-dist-lease", df.lease.String(),
		"-dist-linger", df.linger.String(),
		"-dist-journal", journalDir,
		"-witness-out", witnessPath,
	}
	if sched.CorruptGets > 0 {
		coordArgs = append(coordArgs, "-dist-corrupt-gets", strconv.Itoa(sched.CorruptGets))
	}
	if sched.FS != nil {
		coordArgs = append(coordArgs, "-dist-journal-fault", sched.FS.String())
	}

	startCoord := func(tag string) (*exec.Cmd, chan error, error) {
		cmd := exec.CommandContext(ctx, exe, coordArgs...)
		pw := &prefixWriter{prefix: tag + "| "}
		cmd.Stdout, cmd.Stderr = pw, pw
		if err := cmd.Start(); err != nil {
			return nil, nil, fmt.Errorf("starting coordinator: %w", err)
		}
		wait := make(chan error, 1)
		children.Add(1)
		go func() {
			defer children.Done()
			wait <- cmd.Wait()
		}()
		return cmd, wait, nil
	}
	coordCmd, coordWait, err := startCoord("coord#1")
	if err != nil {
		return err
	}
	if err := waitHTTPOK(ctx, base+"/dist/readyz", 30*time.Second); err != nil {
		return fmt.Errorf("coordinator never became ready: %w", err)
	}

	// Workers, first one alone: the grace lets it lease every slice, so a
	// scripted death forces full reassignment, like the dist e2e tests.
	exits := make(chan workerExit, len(sched.Workers))
	startWorker := func(i int, w faults.ChaosWorker) error {
		args := []string{"-shard", base, "-shard-id", w.ID,
			"-shard-seed", strconv.FormatInt(sched.Seed+int64(i), 10)}
		if spec := shardFaultSpec(w.Fault); spec != "" {
			args = append(args, "-shard-fault", spec)
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		pw := &prefixWriter{prefix: w.ID + "| "}
		cmd.Stdout, cmd.Stderr = pw, pw
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting worker %s: %w", w.ID, err)
		}
		children.Add(1)
		go func(w faults.ChaosWorker, cmd *exec.Cmd) {
			defer children.Done()
			err := cmd.Wait()
			code := 0
			if cmd.ProcessState != nil {
				code = cmd.ProcessState.ExitCode()
			}
			exits <- workerExit{w: w, err: err, code: code, at: time.Now()}
		}(w, cmd)
		return nil
	}
	for i, w := range sched.Workers {
		if err := startWorker(i, w); err != nil {
			return err
		}
		if i == 0 && len(sched.Workers) > 1 {
			if err := chaosSleep(ctx, 400*time.Millisecond); err != nil {
				return err
			}
		}
	}

	// The scripted coordinator crash: poll the barrier position and SIGKILL
	// the process the moment it reaches the scripted level. A run that
	// finishes first is an error — the schedule would have tested nothing.
	var killedAt, readyAt time.Time
	killLevel := -1
	if sched.Coord != nil {
		client := &http.Client{Timeout: 2 * time.Second}
		for {
			select {
			case err := <-coordWait:
				// A coordinator exits 0 only after the run is done and its
				// linger has passed: the run finished, whatever the last
				// status poll saw.
				if err == nil {
					return fmt.Errorf("run finished before the scripted coordinator kill at level %d fired (coordinator exited 0)", sched.Coord.Level)
				}
				return fmt.Errorf("coordinator exited before the scripted kill at level %d: %v", sched.Coord.Level, err)
			default:
			}
			st, stErr := chaosStatus(client, base+"/dist/status")
			if stErr == nil {
				if st.Done {
					return fmt.Errorf("run finished before the scripted coordinator kill at level %d fired", sched.Coord.Level)
				}
				if st.Level >= sched.Coord.Level {
					killLevel = st.Level
					fmt.Fprintf(os.Stderr, "spacebound: chaos: SIGKILL coordinator at level %d\n", st.Level)
					_ = coordCmd.Process.Kill()
					<-coordWait
					killedAt = time.Now()
					break
				}
			}
			if err := chaosSleep(ctx, 20*time.Millisecond); err != nil {
				return err
			}
		}
		if err := chaosSleep(ctx, sched.Coord.Restart); err != nil {
			return err
		}
		coordCmd, coordWait, err = startCoord("coord#2")
		if err != nil {
			return err
		}
		if err := waitHTTPOK(ctx, base+"/dist/readyz", 30*time.Second); err != nil {
			return fmt.Errorf("restarted coordinator never became ready: %w", err)
		}
		readyAt = time.Now()
		st, stErr := chaosStatus(&http.Client{Timeout: 2 * time.Second}, base+"/dist/status")
		if stErr != nil {
			return fmt.Errorf("restarted coordinator status: %w", stErr)
		}
		// Recovery must not lose a closed level: the coordinator snapshots
		// every level close before its status can show the next level, so
		// the journal must bring it back no lower than the kill monitor saw.
		if st.Level < killLevel {
			return fmt.Errorf("coordinator recovered to level %d, below the level %d it was killed at", st.Level, killLevel)
		}
		if st.Gen < 1 {
			return fmt.Errorf("restarted coordinator reports generation %d, want a post-recovery bump", st.Gen)
		}
		fmt.Fprintf(os.Stderr, "spacebound: chaos: coordinator back at level %d, generation %d, outage %v\n",
			st.Level, st.Gen, readyAt.Sub(killedAt).Round(time.Millisecond))
	}

	// Collect every worker's verdict. Victims (scripted kills) must die by
	// signal; everyone else must exit 0, and never during the outage.
	var failures []string
	for range sched.Workers {
		var e workerExit
		select {
		case e = <-exits:
		case <-ctx.Done():
			return ctx.Err()
		}
		victim := e.w.Fault != nil && e.w.Fault.Kind == "kill"
		switch {
		case victim && e.err == nil:
			failures = append(failures, fmt.Sprintf("worker %s: scripted kill never fired (exited cleanly)", e.w.ID))
		case victim && e.code != -1:
			failures = append(failures, fmt.Sprintf("worker %s: exited %d, want signal death: %v", e.w.ID, e.code, e.err))
		case !victim && e.err != nil:
			failures = append(failures, fmt.Sprintf("healthy worker %s: %v", e.w.ID, e.err))
		case !victim && !killedAt.IsZero() && !e.at.Before(killedAt) && !e.at.After(readyAt):
			failures = append(failures, fmt.Sprintf("healthy worker %s exited during the coordinator outage", e.w.ID))
		default:
			verdict := "ok"
			if victim {
				verdict = "killed by signal, as scripted"
			}
			fmt.Fprintf(os.Stderr, "spacebound: chaos: worker %s: %s\n", e.w.ID, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("chaos run failed:\n  %s", strings.Join(failures, "\n  "))
	}
	if err := <-coordWait; err != nil {
		return fmt.Errorf("coordinator (final incarnation): %w", err)
	}

	// The verdict that matters: the witness the chaotic run produced,
	// byte for byte against the sequential reference, sidecar included.
	got, err := os.ReadFile(witnessPath)
	if err != nil {
		return fmt.Errorf("chaos witness artifact: %w", err)
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("chaos witness differs from the sequential reference:\n--- chaos\n%s--- sequential\n%s", got, ref)
	}
	sum := sha256.Sum256(got)
	sidecar, err := os.ReadFile(witnessPath + ".sha256")
	if err != nil {
		return fmt.Errorf("chaos witness sidecar: %w", err)
	}
	if f := strings.Fields(string(sidecar)); len(f) == 0 || f[0] != fmt.Sprintf("%x", sum) {
		return fmt.Errorf("chaos witness sidecar %q does not match sha256 %x", sidecar, sum)
	}

	if witnessOut != "" {
		if err := checkpoint.WriteArtifact(witnessOut, got); err != nil {
			return fmt.Errorf("witness artifact: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spacebound: witness written to %s (+.sha256)\n", witnessOut)
	} else {
		fmt.Print(string(got))
	}
	fmt.Fprintf(os.Stderr, "spacebound: chaos run complete: witness byte-identical to the sequential reference (sha256 %x)\n", sum)
	if !keepDir {
		_ = os.RemoveAll(workDir)
	}
	return nil
}

// chaosReference computes the sequential reference witness in-process.
func chaosReference(ctx context.Context, df distFlags, protocol string, n int) ([]byte, error) {
	run, err := dist.NewRun(protocol, n, 1, df.maxDepth, time.Second)
	if err != nil {
		return nil, err
	}
	return dist.SequentialWitness(ctx, run.Spec, run.Root, run.Procs, run.Opts)
}

// workerExit is one child worker's terminal state.
type workerExit struct {
	w    faults.ChaosWorker
	err  error
	code int
	at   time.Time
}

// shardFaultSpec renders a worker fault back into -shard-fault syntax.
func shardFaultSpec(f *faults.ShardFault) string {
	switch {
	case f == nil:
		return ""
	case f.Kind == "kill":
		return fmt.Sprintf("kill@level=%d", f.Level)
	case f.Kind == "stall":
		return fmt.Sprintf("stall@level=%d:dur=%s", f.Level, f.Stall)
	}
	return ""
}

// chaosStatus fetches and decodes GET /dist/status.
func chaosStatus(client *http.Client, url string) (dist.Status, error) {
	resp, err := client.Get(url)
	if err != nil {
		return dist.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return dist.Status{}, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var st dist.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return dist.Status{}, err
	}
	return st, nil
}

// waitHTTPOK polls url until it answers 200, for at most timeout.
func waitHTTPOK(ctx context.Context, url string, timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("%s: %s", url, resp.Status)
		} else {
			lastErr = err
		}
		if err := chaosSleep(ctx, 50*time.Millisecond); err != nil {
			return err
		}
	}
	return fmt.Errorf("timed out after %v: %w", timeout, lastErr)
}

// chaosSleep waits for d or until ctx is cancelled.
func chaosSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// prefixWriter tags every line a child process writes with its name, so the
// interleaved stderr of a coordinator, its successor, and several workers
// stays attributable.
type prefixWriter struct {
	mu     sync.Mutex
	prefix string
	buf    bytes.Buffer
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			// Partial line: hold it until its newline arrives.
			w.buf.WriteString(line)
			break
		}
		fmt.Fprintf(os.Stderr, "%s%s", w.prefix, line)
	}
	return len(p), nil
}
