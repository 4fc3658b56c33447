// Package server turns the Theorem 1 construction into a supervised
// service: jobs submitted over HTTP run under a bounded worker pool with
// admission control, retry with capped exponential backoff, per-job
// crash-safe checkpoints, and a tamper-evident Merkle ledger of every
// witness produced. A SIGKILLed server restarted over the same data
// directory resumes its interrupted jobs from their snapshots and finishes
// them with byte-identical witnesses.
package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
)

// JobSpec is the submitted description of one proof job: which protocol to
// attack, at what n, and under what per-attempt budgets.
type JobSpec struct {
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	// MaxConfigs caps each valency query (0 = the protocol's default).
	MaxConfigs int `json:"max_configs,omitempty"`
	// Workers is the exploration parallelism per valency query. It defaults
	// to 1: sequential exploration is what makes a resumed run's witness
	// byte-identical to an uninterrupted one.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds each attempt's wall clock (0 = the server default).
	// An attempt stopped by this budget checkpoints its progress and is
	// retried; with checkpoints each retry starts where the last stopped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// timeout resolves the per-attempt budget against the server default.
func (sp JobSpec) timeout(def time.Duration) time.Duration {
	if sp.TimeoutMS > 0 {
		return time.Duration(sp.TimeoutMS) * time.Millisecond
	}
	return def
}

// validate rejects specs the scheduler would only fail on later.
func (sp *JobSpec) validate() error {
	m, _, err := core.Machine(sp.Protocol)
	if err != nil {
		return err
	}
	if err := core.CheckProcesses(m, sp.N); err != nil {
		return err
	}
	if sp.MaxConfigs < 0 || sp.TimeoutMS < 0 || sp.Workers < 0 {
		return fmt.Errorf("server: negative budget in spec")
	}
	if sp.Workers == 0 {
		sp.Workers = 1
	}
	return nil
}

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: admitted, waiting for a worker (first run or retry).
	StateQueued State = "queued"
	// StateRunning: a worker is executing an attempt right now.
	StateRunning State = "running"
	// StateDone: witness produced, verified by independent replay, and
	// handed to the ledger.
	StateDone State = "done"
	// StateFailed: terminal — the failure class is in Status.Reason and the
	// job will never be retried.
	StateFailed State = "failed"
)

// Terminal failure reasons (Status.Reason).
const (
	// ReasonVerifyFailed: the construction finished but the witness failed
	// the independent replay audit — never retried, the same deterministic
	// construction would fail the same way.
	ReasonVerifyFailed = "verify-failed"
	// ReasonConstruction: the engine reported a property violation or other
	// non-budget failure (e.g. the protocol is not a consensus protocol).
	ReasonConstruction = "construction-failed"
	// ReasonRetriesExhausted: every attempt failed retryably and the
	// attempt budget ran out.
	ReasonRetriesExhausted = "retries-exhausted"
)

// LedgerRef is a job's position in the witness ledger.
type LedgerRef struct {
	BatchSeq uint64      `json:"batch_seq"`
	Root     ledger.Hash `json:"root"`
}

// Status is a job's full public record; it is also what status.json holds
// on disk, so a restarted server reconstructs the job table from it.
type Status struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	// TraceID correlates this job's spans across the shared server trace:
	// every record the job's engine emits (explore levels, valency queries,
	// adversary lemma spans) carries "trace":TraceID, so one job's history
	// is recoverable from a multi-tenant trace.jsonl by filtering on it.
	// Assigned at submission and persisted, so it survives restarts.
	TraceID string `json:"trace_id,omitempty"`

	State    State `json:"state"`
	Attempts int   `json:"attempts"`

	// Reason is the terminal failure class when State is failed.
	Reason string `json:"reason,omitempty"`
	// LastError is the most recent attempt's failure, terminal or not.
	LastError string `json:"last_error,omitempty"`
	// Progress summarises the interrupted construction (from
	// adversary.Partial) while a retry is pending.
	Progress string `json:"progress,omitempty"`

	// WitnessSHA256 is the hex hash of the witness artifact once done —
	// the exact value the ledger commits to.
	WitnessSHA256 string `json:"witness_sha256,omitempty"`
	// Registers is the witnessed register count once done.
	Registers int `json:"registers,omitempty"`
	// Ledger records the Merkle batch that includes this witness (set
	// asynchronously after the batch flushes).
	Ledger *LedgerRef `json:"ledger,omitempty"`

	CreatedUnixNano   int64 `json:"created_unix_nano"`
	UpdatedUnixNano   int64 `json:"updated_unix_nano"`
	NextRetryUnixNano int64 `json:"next_retry_unix_nano,omitempty"`
}

// terminalError marks a failure that must never be retried: re-running a
// deterministic construction cannot change a property violation or a
// failed verification.
type terminalError struct {
	reason string
	err    error
}

func (e *terminalError) Error() string { return fmt.Sprintf("%s: %v", e.reason, e.err) }
func (e *terminalError) Unwrap() error { return e.err }

// terminalf wraps err as a terminal failure with the given reason class.
func terminalf(reason string, err error) error {
	return &terminalError{reason: reason, err: err}
}

// classify splits a failed attempt into retryable (budget interruptions,
// injected faults, IO hiccups — anything a fresh attempt over the
// checkpoint may get past) versus terminal (explicitly marked). The default
// is retryable: the checkpoint layer makes retries cheap, and a terminal
// misclassification silently buries a provable theorem.
func classify(err error) (retryable bool, reason string) {
	var term *terminalError
	if errors.As(err, &term) {
		return false, term.reason
	}
	return true, ""
}
