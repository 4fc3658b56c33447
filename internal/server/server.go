package server

import (
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/trace"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrSaturated: the queue is full; the client should retry after a
	// moment (HTTP 429 + Retry-After).
	ErrSaturated = errors.New("server: queue saturated")
	// ErrDraining: the server is shutting down and admits nothing (503).
	ErrDraining = errors.New("server: draining")
	// ErrUnknownJob: no job with that ID (404).
	ErrUnknownJob = errors.New("server: unknown job")
)

// Options configures a Server. The zero value of every field selects a
// sensible default. The ledger batcher has no knobs: it group-commits, so
// a finished witness waits only for the fsync in flight and its own.
type Options struct {
	// DataDir is the root of all persistent state: jobs/<id>/ per job and
	// ledger/ledger.seg for the witness ledger. Required.
	DataDir string
	// Workers is the number of jobs run concurrently (default 2).
	Workers int
	// QueueDepth bounds the admission queue; a submit beyond it gets
	// ErrSaturated (default 8). Retries bypass admission — they were
	// already admitted once.
	QueueDepth int
	// MaxAttempts bounds retries per job (default 5).
	MaxAttempts int
	// RetryBase and RetryMax shape the backoff: base<<(attempt-1) capped at
	// max, plus up to 25% seeded jitter (defaults 500ms / 30s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// DefaultTimeout is the per-attempt budget for specs that set none
	// (default 0 = unbounded).
	DefaultTimeout time.Duration
	// CheckpointEvery is the minimum interval between job snapshots
	// (default 2s).
	CheckpointEvery time.Duration
	// Scope receives the server's metrics, events and readiness probe.
	Scope *obs.Scope
	// Faults, when non-nil, injects failures at named operations
	// ("job.run" before each attempt, "ledger.flush" before each ledger
	// commit) — the test surface for the retry and recovery machinery.
	Faults *faults.OpInjector
}

func (o *Options) fill() error {
	if o.DataDir == "" {
		return fmt.Errorf("server: DataDir required")
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 500 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 30 * time.Second
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 2 * time.Second
	}
	return nil
}

// job is the in-memory record behind one Status.
type job struct {
	id     string
	dir    string
	status Status
}

// Server is the proof job service: admission, scheduling, supervision,
// persistence, ledger.
type Server struct {
	opts    Options
	scope   *obs.Scope
	faults  *faults.OpInjector
	ledger  *ledger.Ledger
	batcher *ledger.Batcher

	// baseCtx cancels every running attempt (and wakes idle workers) on
	// drain.
	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	queue    []*job
	nextID   int
	running  int
	draining bool
	rng      *rand.Rand
	timers   map[string]*time.Timer
}

// New opens (or reopens) the data directory, replays the recovery sweep,
// and starts the worker pool. Interrupted jobs found on disk are already
// queued when New returns.
func New(opts Options) (*Server, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(opts.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(opts.DataDir, "ledger"), 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	led, err := ledger.Open(filepath.Join(opts.DataDir, "ledger", "ledger.seg"), opts.Scope)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		scope:     opts.Scope,
		faults:    opts.Faults,
		ledger:    led,
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*job),
		rng:       rand.New(rand.NewSource(1)), // fixed: reproducible backoff jitter
		timers:    make(map[string]*time.Timer),
	}
	s.batcher = ledger.NewBatcher(led, ledger.BatcherOptions{
		Scope:    opts.Scope,
		Faults:   opts.Faults,
		OnCommit: s.onLedgerCommit,
	})
	s.scope.SetReadyCheck(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			return ErrDraining
		}
		return nil
	})
	if err := s.recover(); err != nil {
		cancel()
		s.batcher.Close()
		led.Close()
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover is the startup sweep over jobs/: rebuild the job table from
// status.json files, re-enqueue anything that was queued or running when
// the last process died, and re-ledger finished witnesses the ledger never
// committed (the crash-between-done-and-flush window).
func (s *Server) recover() error {
	jobsDir := filepath.Join(s.opts.DataDir, "jobs")
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return fmt.Errorf("server: recovery sweep: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic re-enqueue order
	for _, name := range names {
		j := &job{id: name, dir: filepath.Join(jobsDir, name)}
		raw, err := os.ReadFile(filepath.Join(j.dir, "status.json"))
		if err != nil || json.Unmarshal(raw, &j.status) != nil || j.status.ID != name {
			// A torn status write. The spec is written first and
			// atomically; rebuild from it and start the job over.
			var spec JobSpec
			specRaw, specErr := os.ReadFile(filepath.Join(j.dir, "spec.json"))
			if specErr != nil || json.Unmarshal(specRaw, &spec) != nil {
				s.scope.Event("job_unrecoverable", slog.String("job", name))
				continue
			}
			j.status = Status{ID: name, Spec: spec, State: StateQueued}
		}
		if j.status.TraceID == "" {
			// Jobs persisted before trace correlation existed (or with a
			// torn status rebuilt from spec) get an ID now, so their future
			// spans are filterable like everyone else's.
			j.status.TraceID = newTraceID()
		}
		// The batcher's flusher may already be committing an earlier job's
		// re-ledger, and its commit callback reads the job table under s.mu.
		s.mu.Lock()
		if n := idNum(name); n >= s.nextID {
			s.nextID = n + 1
		}
		s.jobs[name] = j
		s.mu.Unlock()
		switch j.status.State {
		case StateFailed:
			// Terminal stays terminal across restarts.
		case StateDone:
			if s.ledger.Contains(j.id) {
				continue
			}
			// Finished but unledgered: hash the persisted artifact and
			// hand it back to the batcher. If the artifact is damaged,
			// fall through to a full re-run — the checkpointed memo makes
			// that cheap.
			body, err := s.verifiedWitnessBody(j)
			if err != nil {
				s.requeueRecovered(j, fmt.Sprintf("witness artifact lost (%v), re-running", err))
				continue
			}
			s.scope.Counter("jobs_releadgered").Add(1)
			s.scope.Event("job_reledgered", slog.String("job", j.id))
			if err := s.batcher.Add(ledger.Item{JobID: j.id, Witness: sha256.Sum256(body)}); err != nil {
				return err
			}
		case StateRunning, StateQueued:
			s.requeueRecovered(j, "")
		default:
			s.requeueRecovered(j, "")
		}
	}
	return nil
}

// verifiedWitnessBody loads a done job's artifact, checking the sha256
// sidecar on the way.
func (s *Server) verifiedWitnessBody(j *job) ([]byte, error) {
	path := filepath.Join(j.dir, "witness.txt")
	if err := checkpoint.VerifyArtifact(path); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// requeueRecovered puts a swept job back on the queue (called from recover,
// before any worker starts — no locking needed yet, but take the mutex for
// uniformity with later requeues).
func (s *Server) requeueRecovered(j *job, note string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.status.State = StateQueued
	j.status.NextRetryUnixNano = 0
	if note != "" {
		j.status.LastError = note
	}
	s.persistLocked(j)
	s.queue = append(s.queue, j)
	s.scope.Counter("jobs_recovered").Add(1)
	s.scope.Event("job_recovered",
		slog.String("job", j.id),
		slog.Int("attempts", j.status.Attempts))
}

// newTraceID returns a fresh 64-bit random hex trace identifier. Job IDs
// are sequential and restart from the data directory's maximum, so they
// cannot correlate records across unrelated server incarnations; a random
// trace ID can.
func newTraceID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fall back to the clock; uniqueness within one trace file is all
		// the correlation needs.
		return fmt.Sprintf("t%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// idNum parses the numeric tail of a job ID ("j000042" -> 42), -1 if the
// name is foreign.
func idNum(name string) int {
	if len(name) < 2 || name[0] != 'j' {
		return -1
	}
	n := 0
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// Submit admits a new job: validate, persist spec and initial status, put
// it on the queue. Returns ErrSaturated at the admission bound and
// ErrDraining during shutdown.
func (s *Server) Submit(spec JobSpec) (Status, error) {
	if err := spec.validate(); err != nil {
		return Status{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Status{}, ErrDraining
	}
	if len(s.queue) >= s.opts.QueueDepth {
		s.scope.Counter("jobs_rejected").Add(1)
		return Status{}, ErrSaturated
	}
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	j := &job{
		id:  id,
		dir: filepath.Join(s.opts.DataDir, "jobs", id),
	}
	now := time.Now().UnixNano()
	j.status = Status{ID: id, Spec: spec, TraceID: newTraceID(), State: StateQueued, CreatedUnixNano: now, UpdatedUnixNano: now}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return Status{}, fmt.Errorf("server: job dir: %w", err)
	}
	specJSON, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return Status{}, err
	}
	if _, err := checkpoint.WriteFileAtomic(filepath.Join(j.dir, "spec.json"), writeAll(specJSON)); err != nil {
		return Status{}, fmt.Errorf("server: persist spec: %w", err)
	}
	s.persistLocked(j)
	s.jobs[id] = j
	s.queue = append(s.queue, j)
	s.scope.Counter("jobs_submitted").Add(1)
	s.scope.Gauge("jobs_queued").Set(int64(len(s.queue)))
	s.scope.Event("job_submitted",
		slog.String("job", id),
		slog.String("trace", j.status.TraceID),
		slog.String("protocol", spec.Protocol),
		slog.Int("n", spec.N))
	return j.status, nil
}

// Job returns a copy of one job's status.
func (s *Server) Job(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrUnknownJob
	}
	return j.status, nil
}

// Jobs returns every job's status, ordered by ID.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// WitnessPath returns the artifact path for a done job.
func (s *Server) WitnessPath(id string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", ErrUnknownJob
	}
	if j.status.State != StateDone {
		return "", fmt.Errorf("server: job %s is %s, no witness yet", id, j.status.State)
	}
	return filepath.Join(j.dir, "witness.txt"), nil
}

// TracePath returns a job's JSONL trace file path.
func (s *Server) TracePath(id string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", ErrUnknownJob
	}
	return filepath.Join(j.dir, "trace.jsonl"), nil
}

// Proof returns the ledger inclusion proof for a done job's witness.
func (s *Server) Proof(id string) (*ledger.Proof, error) {
	s.mu.Lock()
	if _, ok := s.jobs[id]; !ok {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	s.mu.Unlock()
	return s.ledger.Proof(id)
}

// LedgerHead returns the chain head (seq 0 = empty ledger).
func (s *Server) LedgerHead() (uint64, ledger.Hash) { return s.ledger.Head() }

// Drain stops admission, cancels running attempts (their engines persist a
// final checkpoint on the way out and the jobs return to queued on disk),
// flushes the ledger, and waits for the workers — bounded by ctx.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for id, t := range s.timers {
		t.Stop()
		delete(s.timers, id)
	}
	s.scope.Gauge("jobs_retrying").Set(0)
	s.mu.Unlock()
	s.scope.Event("server_draining")
	s.cancelAll()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain: %w", ctx.Err())
	}
	if cerr := s.batcher.Close(); err == nil {
		err = cerr
	}
	if cerr := s.ledger.Close(); err == nil {
		err = cerr
	}
	s.scope.Event("server_drained")
	return err
}

// worker runs queued attempts until drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.pop()
		if j == nil {
			return
		}
		s.attempt(j)
	}
}

// pop takes the next queued job, polling until one appears or the server
// drains.
func (s *Server) pop() *job {
	for {
		s.mu.Lock()
		if len(s.queue) > 0 && !s.draining {
			j := s.queue[0]
			s.queue = s.queue[1:]
			s.running++
			s.scope.Gauge("jobs_queued").Set(int64(len(s.queue)))
			s.scope.Gauge("jobs_running").Set(int64(s.running))
			s.mu.Unlock()
			return j
		}
		s.mu.Unlock()
		select {
		case <-s.baseCtx.Done():
			return nil
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// AttemptLatencyBoundsMicros are the fixed buckets of the job_attempt_us
// histogram: attempts range from fast-forwarded resumes of milliseconds to
// cold n=5 constructions of minutes.
var AttemptLatencyBoundsMicros = []int64{10000, 50000, 100000, 500000, 1000000, 5000000, 10000000, 60000000, 300000000, 1800000000}

// attempt runs one supervised attempt of j and decides its fate: done,
// retry after backoff, terminal failure, or (during drain) persisted back
// to queued for the next process.
func (s *Server) attempt(j *job) {
	s.mu.Lock()
	j.status.State = StateRunning
	j.status.Attempts++
	j.status.NextRetryUnixNano = 0
	attempts := j.status.Attempts
	s.persistLocked(j)
	s.mu.Unlock()

	ctx := s.baseCtx
	if d := j.status.Spec.timeout(s.opts.DefaultTimeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	attemptStart := time.Now()
	err := s.runAttempt(ctx, j)
	s.scope.Histogram("job_attempt_us", AttemptLatencyBoundsMicros).Observe(time.Since(attemptStart).Microseconds())

	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		s.running--
		s.scope.Gauge("jobs_running").Set(int64(s.running))
	}()
	j.status.UpdatedUnixNano = time.Now().UnixNano()
	if err == nil {
		j.status.State = StateDone
		j.status.LastError, j.status.Progress, j.status.Reason = "", "", ""
		s.persistLocked(j)
		s.scope.Counter("jobs_done").Add(1)
		s.scope.Event("job_done",
			slog.String("job", j.id),
			slog.Int("attempts", attempts),
			slog.String("witness_sha256", j.status.WitnessSHA256))
		return
	}

	j.status.LastError = err.Error()
	var p *adversary.Partial
	if errors.As(err, &p) {
		j.status.Progress = p.String()
	}
	retryable, reason := classify(err)

	if s.draining && retryable {
		// Interrupted by shutdown, not by its own failure: persist as
		// queued so the next process's recovery sweep picks it up.
		j.status.State = StateQueued
		s.persistLocked(j)
		s.scope.Event("job_parked", slog.String("job", j.id))
		return
	}
	if !retryable || attempts >= s.opts.MaxAttempts {
		if retryable {
			reason = ReasonRetriesExhausted
		}
		j.status.State = StateFailed
		j.status.Reason = reason
		s.persistLocked(j)
		s.scope.Counter("jobs_failed").Add(1)
		s.scope.Event("job_failed",
			slog.String("job", j.id),
			slog.String("reason", reason),
			slog.Int("attempts", attempts),
			slog.String("err", err.Error()))
		return
	}

	// Capped, jittered backoff so a restarted fleet doesn't thunder back in
	// lockstep; s.rng is guarded by s.mu.
	delay := retry.Delay(attempts, s.opts.RetryBase, s.opts.RetryMax, s.rng, 0)
	j.status.State = StateQueued
	j.status.NextRetryUnixNano = time.Now().Add(delay).UnixNano()
	s.persistLocked(j)
	s.scope.Counter("jobs_retried").Add(1)
	s.scope.Event("job_retry",
		slog.String("job", j.id),
		slog.Int("attempt", attempts),
		slog.Duration("backoff", delay),
		slog.String("err", err.Error()))
	s.timers[j.id] = time.AfterFunc(delay, func() { s.requeueRetry(j) })
	s.scope.Gauge("jobs_retrying").Set(int64(len(s.timers)))
}

// requeueRetry moves a backed-off job onto the queue (timer callback).
// Retries bypass the admission bound: the job was admitted when submitted.
func (s *Server) requeueRetry(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.timers, j.id)
	s.scope.Gauge("jobs_retrying").Set(int64(len(s.timers)))
	if s.draining {
		return // already persisted as queued; next process resumes it
	}
	j.status.NextRetryUnixNano = 0
	s.queue = append(s.queue, j)
	s.scope.Gauge("jobs_queued").Set(int64(len(s.queue)))
}

// runAttempt runs one attempt of j and turns a panic inside it into a
// terminal construction failure: the same deterministic construction would
// panic again, and left to unwind, the panic would take the server down
// with every other job.
func (s *Server) runAttempt(ctx context.Context, j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = terminalf(ReasonConstruction, fmt.Errorf("server: attempt panicked: %v", r))
		}
	}()
	return s.runJob(ctx, j)
}

// runJob executes one attempt: resolve the machine, resume from the job's
// newest snapshot if one exists, run Theorem 1 under the attempt context,
// verify the witness by independent replay, persist the artifact, and hand
// its hash to the ledger batcher.
func (s *Server) runJob(ctx context.Context, j *job) error {
	if err := s.faults.Hit("job.run"); err != nil {
		return err
	}
	spec := j.status.Spec
	m, opts, err := core.Machine(spec.Protocol)
	if err != nil {
		return terminalf(ReasonConstruction, err)
	}
	if spec.MaxConfigs > 0 {
		opts.MaxConfigs = spec.MaxConfigs
	}
	opts.Workers = spec.Workers

	// Per-job trace, appended across attempts so the retry history reads as
	// one stream. When the server itself traces, the job's records are teed
	// into the shared trace too — tagged with the job's trace ID, so one
	// job's spans filter cleanly out of the multi-tenant stream.
	tf, err := os.OpenFile(filepath.Join(j.dir, "trace.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer tf.Close()
	tw := io.Writer(tf)
	if sink := s.scope.Tracer().Sink(); sink != nil {
		// A tee loses tf's Closer identity, hence the explicit Close above
		// (harmlessly redundant when the tracer owns it). slog serialises
		// each record into one Write, so interleaved lines stay whole.
		tw = io.MultiWriter(tf, sink)
	}
	tr := obs.NewTracerWithID(tw, j.status.TraceID)
	defer tr.Close()
	scope := obs.NewScope(tr)
	if rec := s.scope.Recorder(); rec != nil {
		// The job engine's level boundaries tick the server's shared flight
		// recorder, but the samples read the server scope's registry — the
		// job's private registry stays its own.
		scope.SetRecorder(rec)
	}
	opts.Obs = scope

	// A job always tries to resume (a retry continues its last attempt);
	// no snapshot, or one from a stale spec, means a fresh construction.
	engine, coord, snap, err := adversary.Open(opts, spec.Protocol, spec.N, filepath.Join(j.dir, "ckpt"), s.opts.CheckpointEvery, true, scope)
	if err != nil && !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return err
	}
	if snap != nil {
		s.scope.Event("job_resumed",
			slog.String("job", j.id),
			slog.Uint64("snapshot_seq", snap.Meta.Seq),
			slog.String("stage", snap.Meta.Stage))
	}

	w, err := engine.Theorem1(ctx, m, spec.N)
	if err != nil {
		// Persist the progress the attempt made; the retry resumes from it.
		if ferr := coord.Flush(); ferr != nil {
			s.scope.Event("job_checkpoint_error", slog.String("job", j.id), slog.String("err", ferr.Error()))
		}
		var p *adversary.Partial
		if errors.As(err, &p) {
			return err // budget interruption: retryable with progress intact
		}
		return terminalf(ReasonConstruction, err)
	}
	if err := coord.Flush(); err != nil {
		s.scope.Event("job_checkpoint_error", slog.String("job", j.id), slog.String("err", ferrString(err)))
	}

	// Verify before anything becomes visible: an unverified witness must
	// never reach the artifact directory or the ledger.
	if err := check.VerifyWitness(m, w); err != nil {
		return terminalf(ReasonVerifyFailed, err)
	}
	body := []byte(trace.RenderWitness(w))
	if err := checkpoint.WriteArtifact(filepath.Join(j.dir, "witness.txt"), body); err != nil {
		return err
	}
	sum := sha256.Sum256(body)

	s.mu.Lock()
	j.status.WitnessSHA256 = hex.EncodeToString(sum[:])
	j.status.Registers = w.Registers
	s.mu.Unlock()
	return s.batcher.Add(ledger.Item{JobID: j.id, Witness: sum})
}

// ferrString guards the event attr against a nil error (Flush succeeded).
func ferrString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// onLedgerCommit stamps each job in a freshly committed batch with its
// ledger position (batcher callback, runs on the batcher's flusher
// goroutine, off the batcher lock).
func (s *Server) onLedgerCommit(b *ledger.Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, item := range b.Items {
		j, ok := s.jobs[item.JobID]
		if !ok {
			continue
		}
		j.status.State = StateDone
		j.status.Ledger = &LedgerRef{BatchSeq: b.Seq, Root: b.Root}
		j.status.UpdatedUnixNano = time.Now().UnixNano()
		s.persistLocked(j)
	}
}

// persistLocked writes j's status.json atomically. Caller holds s.mu (or
// is in single-threaded startup). Persistence failures are observable but
// never fatal: the in-memory state keeps serving.
func (s *Server) persistLocked(j *job) {
	j.status.UpdatedUnixNano = time.Now().UnixNano()
	raw, err := json.MarshalIndent(&j.status, "", "  ")
	if err == nil {
		_, err = checkpoint.WriteFileAtomic(filepath.Join(j.dir, "status.json"), writeAll(raw))
	}
	if err != nil {
		s.scope.Counter("status_persist_errors").Add(1)
		s.scope.Event("status_persist_error", slog.String("job", j.id), slog.String("err", err.Error()))
	}
}

// writeAll adapts a byte slice to WriteFileAtomic's writer callback.
func writeAll(b []byte) func(io.Writer) (int64, error) {
	return func(w io.Writer) (int64, error) {
		n, err := w.Write(b)
		return int64(n), err
	}
}
