package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/obs"
)

// waitFor polls cond until it holds or the deadline kills the test.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fastOptions is a baseline for quick tests: tight retry and checkpoints.
func fastOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		DataDir:         t.TempDir(),
		Workers:         1,
		RetryBase:       5 * time.Millisecond,
		RetryMax:        50 * time.Millisecond,
		CheckpointEvery: 50 * time.Millisecond,
		Scope:           obs.NewScope(nil),
	}
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSubmitToDoneWithProof drives one n=3 job end to end: done state,
// verified artifact on disk, a ledger position, and an inclusion proof
// that verifies against the served witness bytes.
func TestSubmitToDoneWithProof(t *testing.T) {
	opts := fastOptions(t)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(JobSpec{Protocol: core.ProtocolDiskRace, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "job done+ledgered", func() bool {
		got, err := s.Job(st.ID)
		return err == nil && got.State == StateDone && got.Ledger != nil
	})
	got, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Registers != 2 {
		t.Fatalf("n=3 witnessed %d registers, want 2", got.Registers)
	}
	path, err := s.WitnessPath(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.VerifyArtifact(path); err != nil {
		t.Fatalf("artifact: %v", err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.WitnessSHA256 != hex.EncodeToString(func() []byte { h := sha256.Sum256(body); return h[:] }()) {
		t.Fatal("status hash does not match the artifact")
	}
	p, err := s.Proof(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("inclusion proof: %v", err)
	}
	if p.Witness != sha256.Sum256(body) {
		t.Fatal("proof commits to different witness bytes")
	}
	if seq, _ := s.LedgerHead(); seq < 1 {
		t.Fatalf("ledger head seq %d", seq)
	}
	drain(t, s)
	if _, _, err := ledger.VerifyLedger(filepath.Join(opts.DataDir, "ledger", "ledger.seg")); err != nil {
		t.Fatalf("VerifyLedger: %v", err)
	}
}

// TestRetryableFailuresBackOffAndSucceed scripts two injected attempt
// failures: the supervisor must retry with backoff and land the job on the
// third attempt.
func TestRetryableFailuresBackOffAndSucceed(t *testing.T) {
	opts := fastOptions(t)
	inj := faults.NewOpInjector()
	inj.Fail("job.run", 2, nil)
	opts.Faults = inj
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Submit(JobSpec{Protocol: core.ProtocolDiskRace, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "job done after retries", func() bool {
		got, _ := s.Job(st.ID)
		return got.State == StateDone
	})
	got, _ := s.Job(st.ID)
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", got.Attempts)
	}
	if v := opts.Scope.Counter("jobs_retried").Value(); v != 2 {
		t.Fatalf("jobs_retried = %d, want 2", v)
	}
	if hits := inj.Hits("job.run"); hits != 3 {
		t.Fatalf("attempt count = %d, want 3", hits)
	}
}

// TestTerminalFailureReportedOnceNeverRetried: a terminal classification
// must fail the job on its first attempt with the typed reason and never
// run again.
func TestTerminalFailureReportedOnceNeverRetried(t *testing.T) {
	opts := fastOptions(t)
	inj := faults.NewOpInjector()
	inj.Fail("job.run", 99, terminalf(ReasonVerifyFailed, errors.New("forced verification failure")))
	opts.Faults = inj
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Submit(JobSpec{Protocol: core.ProtocolDiskRace, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "terminal failure", func() bool {
		got, _ := s.Job(st.ID)
		return got.State == StateFailed
	})
	got, _ := s.Job(st.ID)
	if got.Reason != ReasonVerifyFailed || got.Attempts != 1 {
		t.Fatalf("reason=%q attempts=%d, want %q/1", got.Reason, got.Attempts, ReasonVerifyFailed)
	}
	// Hot-retry check: nothing may touch the job again.
	time.Sleep(100 * time.Millisecond)
	if hits := inj.Hits("job.run"); hits != 1 {
		t.Fatalf("terminal job ran %d times", hits)
	}
	if v := opts.Scope.Counter("jobs_failed").Value(); v != 1 {
		t.Fatalf("jobs_failed = %d, want exactly 1", v)
	}
}

// TestRetriesExhaustedIsTerminal: a permanently retryable failure hits the
// attempt budget and fails with the retries-exhausted reason.
func TestRetriesExhaustedIsTerminal(t *testing.T) {
	opts := fastOptions(t)
	opts.MaxAttempts = 2
	inj := faults.NewOpInjector()
	inj.Fail("job.run", 99, nil)
	opts.Faults = inj
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Submit(JobSpec{Protocol: core.ProtocolDiskRace, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "retries exhausted", func() bool {
		got, _ := s.Job(st.ID)
		return got.State == StateFailed
	})
	got, _ := s.Job(st.ID)
	if got.Reason != ReasonRetriesExhausted || got.Attempts != 2 {
		t.Fatalf("reason=%q attempts=%d", got.Reason, got.Attempts)
	}
}

// TestAdmissionControlAndDrain saturates a 1-worker/depth-1 server with a
// long n=4 job, checks the 429 + Retry-After backpressure and the draining
// 503, then drains and confirms the interrupted job is parked on disk as
// queued with its progress report.
func TestAdmissionControlAndDrain(t *testing.T) {
	opts := fastOptions(t)
	opts.QueueDepth = 1
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Long job: n=4 runs for many seconds, far longer than this test.
	respA := submit(`{"protocol":"diskrace","n":4}`)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %d", respA.StatusCode)
	}
	var stA Status
	if err := json.NewDecoder(respA.Body).Decode(&stA); err != nil {
		t.Fatal(err)
	}
	respA.Body.Close()
	waitFor(t, 10*time.Second, "A running", func() bool {
		got, _ := s.Job(stA.ID)
		return got.State == StateRunning
	})
	// Worker busy: B fills the queue, C bounces with Retry-After.
	respB := submit(`{"protocol":"diskrace","n":2}`)
	respB.Body.Close()
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %d", respB.StatusCode)
	}
	respC := submit(`{"protocol":"diskrace","n":2}`)
	respC.Body.Close()
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit C: %d, want 429", respC.StatusCode)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Malformed and invalid specs are 400s, not queue slots.
	if resp := submit(`{"protocol":"nosuch","n":3}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad protocol: %d", resp.StatusCode)
	}
	// Witness of a running job is a 409; unknown job a 404.
	if resp, _ := http.Get(ts.URL + "/jobs/" + stA.ID + "/witness"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("witness of running job: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	if err := opts.Scope.ReadyErr(); err != nil {
		t.Fatalf("scope readiness before drain: %v", err)
	}

	drain(t, s)
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d", resp.StatusCode)
	}
	if !errors.Is(opts.Scope.ReadyErr(), ErrDraining) {
		t.Fatal("obs readiness probe not wired to draining state")
	}
	if resp := submit(`{"protocol":"diskrace","n":2}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	// The interrupted n=4 job must be parked on disk as queued, with the
	// partial-progress report captured.
	raw, err := os.ReadFile(filepath.Join(opts.DataDir, "jobs", stA.ID, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var parked Status
	if err := json.Unmarshal(raw, &parked); err != nil {
		t.Fatal(err)
	}
	if parked.State != StateQueued {
		t.Fatalf("interrupted job persisted as %q, want queued", parked.State)
	}
	if parked.Progress == "" {
		t.Fatal("no partial-progress report persisted for the interrupted job")
	}
}

// TestRecoverySweep rebuilds a server over a data directory holding (a) a
// finished job the ledger never saw and (b) an interrupted queued job: the
// sweep must re-ledger the first and run the second to completion, and new
// IDs must not collide with the recovered ones.
func TestRecoverySweep(t *testing.T) {
	dataDir := t.TempDir()
	// (a) done-but-unledgered: artifact on disk, status done, empty ledger.
	doneDir := filepath.Join(dataDir, "jobs", "j000000")
	if err := os.MkdirAll(doneDir, 0o755); err != nil {
		t.Fatal(err)
	}
	witness := []byte("pretend witness body\n")
	if err := checkpoint.WriteArtifact(filepath.Join(doneDir, "witness.txt"), witness); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(witness)
	writeStatus := func(dir string, st Status) {
		t.Helper()
		raw, err := json.MarshalIndent(&st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "status.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, _ := json.Marshal(st.Spec)
		if err := os.WriteFile(filepath.Join(dir, "spec.json"), spec, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeStatus(doneDir, Status{
		ID:            "j000000",
		Spec:          JobSpec{Protocol: core.ProtocolDiskRace, N: 2, Workers: 1},
		State:         StateDone,
		Attempts:      1,
		WitnessSHA256: hex.EncodeToString(sum[:]),
	})
	// (b) interrupted mid-run: persisted as queued.
	qDir := filepath.Join(dataDir, "jobs", "j000001")
	if err := os.MkdirAll(qDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeStatus(qDir, Status{
		ID:       "j000001",
		Spec:     JobSpec{Protocol: core.ProtocolDiskRace, N: 2, Workers: 1},
		State:    StateQueued,
		Attempts: 1,
	})

	opts := fastOptions(t)
	opts.DataDir = dataDir
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	waitFor(t, 30*time.Second, "recovered jobs settled", func() bool {
		a, _ := s.Job("j000000")
		b, _ := s.Job("j000001")
		return a.Ledger != nil && b.State == StateDone && b.Ledger != nil
	})
	p, err := s.Proof("j000000")
	if err != nil {
		t.Fatal(err)
	}
	if p.Witness != sum {
		t.Fatal("re-ledgered witness hash drifted from the artifact")
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("re-ledgered proof: %v", err)
	}
	if v := opts.Scope.Counter("jobs_recovered").Value(); v != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", v)
	}
	// Fresh IDs continue past the recovered ones.
	st, err := s.Submit(JobSpec{Protocol: core.ProtocolDiskRace, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000002" {
		t.Fatalf("next ID = %s, want j000002", st.ID)
	}
	waitFor(t, 30*time.Second, "new job done", func() bool {
		got, _ := s.Job(st.ID)
		return got.State == StateDone
	})
}

// TestTraceEndpointStreams: the per-job trace is valid JSONL with the
// engine's span records in it.
func TestTraceEndpointStreams(t *testing.T) {
	opts := fastOptions(t)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, err := s.Submit(JobSpec{Protocol: core.ProtocolDiskRace, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "job done", func() bool {
		got, _ := s.Job(st.ID)
		return got.State == StateDone
	})
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 0 {
		t.Fatal("empty trace")
	}
	sawTheorem := false
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line is not JSON: %q", line)
		}
		if rec["msg"] == "theorem1" {
			sawTheorem = true
		}
	}
	if !sawTheorem {
		t.Fatal("trace has no theorem1 span")
	}
}

// lockedBuffer is a concurrency-safe io.Writer standing in for the
// server's shared trace sink; slog serialises each record into a single
// Write, so whole JSONL lines interleave without tearing.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestTwoJobTraceCorrelation runs two jobs concurrently against a server
// whose scope carries a tracer, so every job span is teed into one
// multi-tenant trace stream. Each job's spans must be recoverable from
// that stream by its trace ID alone, and each job's private trace.jsonl
// must carry only its own ID.
func TestTwoJobTraceCorrelation(t *testing.T) {
	var shared lockedBuffer
	tr := obs.NewTracer(&shared)
	opts := fastOptions(t)
	opts.Workers = 2
	opts.Scope = obs.NewScope(tr)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	st1, err := s.Submit(JobSpec{Protocol: core.ProtocolDiskRace, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Submit(JobSpec{Protocol: core.ProtocolFlood, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st1.TraceID == "" || st2.TraceID == "" {
		t.Fatalf("jobs submitted without trace IDs: %q, %q", st1.TraceID, st2.TraceID)
	}
	if st1.TraceID == st2.TraceID {
		t.Fatalf("both jobs share trace ID %q", st1.TraceID)
	}
	for _, id := range []string{st1.ID, st2.ID} {
		waitFor(t, 60*time.Second, "job "+id+" done", func() bool {
			got, err := s.Job(id)
			return err == nil && got.State == StateDone
		})
	}
	drain(t, s)

	// The multi-tenant stream: filtering on one trace ID must recover that
	// job's spans, and the two span sets must be non-empty and disjoint.
	perTrace := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(shared.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("malformed JSONL line in shared trace: %q: %v", line, err)
		}
		if id, ok := rec["trace"].(string); ok {
			perTrace[id]++
		}
	}
	for _, st := range []Status{st1, st2} {
		if perTrace[st.TraceID] == 0 {
			t.Errorf("no spans for trace %s (job %s) in the shared stream; got %v", st.TraceID, st.ID, perTrace)
		}
	}

	// Each job's private trace carries its own ID on every record and
	// never the other job's.
	others := map[string]string{st1.ID: st2.TraceID, st2.ID: st1.TraceID}
	own := map[string]string{st1.ID: st1.TraceID, st2.ID: st2.TraceID}
	for _, jobID := range []string{st1.ID, st2.ID} {
		path, err := s.TracePath(jobID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) == 0 || lines[0] == "" {
			t.Fatalf("job %s produced an empty trace", jobID)
		}
		for _, line := range lines {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("job %s: malformed trace line %q: %v", jobID, line, err)
			}
			if got, _ := rec["trace"].(string); got != own[jobID] {
				t.Fatalf("job %s: trace line tagged %q, want %q: %s", jobID, got, own[jobID], line)
			}
			if strings.Contains(line, others[jobID]) {
				t.Fatalf("job %s: foreign trace ID leaked into private trace: %s", jobID, line)
			}
		}
	}
}

// TestSubmitRejectsUnstartableSpec: a spec whose protocol cannot start
// with the requested n (CoinFlood is built for exactly two processes) is
// refused at submit with a 400 instead of panicking a worker later.
func TestSubmitRejectsUnstartableSpec(t *testing.T) {
	s, err := New(fastOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"protocol":"coinflood","n":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("coinflood n=3 submit: %s %s, want 400", resp.Status, body)
	}
	if !strings.Contains(string(body), "n=3") {
		t.Fatalf("rejection does not name the bad n: %s", body)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected spec left %d jobs behind", len(jobs))
	}
	if err := (&JobSpec{Protocol: core.ProtocolCoinFlood, N: 2}).validate(); err != nil {
		t.Fatalf("coinflood n=2 rejected: %v", err)
	}
}

// TestAttemptPanicIsTerminal: a job whose construction panics — here a
// coinflood n=3 spec persisted before submit checked it, picked up by the
// recovery sweep — fails terminally with the construction reason after
// one attempt, and the server keeps serving other jobs.
func TestAttemptPanicIsTerminal(t *testing.T) {
	opts := fastOptions(t)
	dir := filepath.Join(opts.DataDir, "jobs", "j000000")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(JobSpec{Protocol: core.ProtocolCoinFlood, N: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	waitFor(t, 30*time.Second, "panicking job failed", func() bool {
		got, _ := s.Job("j000000")
		return got.State == StateFailed
	})
	got, _ := s.Job("j000000")
	if got.Reason != ReasonConstruction || got.Attempts != 1 || !strings.Contains(got.LastError, "panicked") {
		t.Fatalf("reason=%q attempts=%d err=%q, want %q after 1 attempt", got.Reason, got.Attempts, got.LastError, ReasonConstruction)
	}
	st, err := s.Submit(JobSpec{Protocol: core.ProtocolDiskRace, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "next job done", func() bool {
		got, _ := s.Job(st.ID)
		return got.State == StateDone
	})
}
