// Command provesrv serves the Theorem 1 construction as a supervised job
// service: submit proof jobs over HTTP, poll their status, fetch the
// witness, its JSONL trace, and a Merkle inclusion proof from the
// tamper-evident witness ledger.
//
// Usage:
//
//	provesrv -addr :8080 -data-dir ./provesrv-data
//	         [-jobs 2] [-queue 8] [-max-attempts 5] [-retry-base 500ms] [-retry-max 30s]
//	         [-default-timeout 0] [-checkpoint-every 2s] [-batch-size 16] [-batch-wait 500ms]
//	         [-debug-addr host:port] [-trace-out trace.jsonl]
//	         [-coordinator -dist-protocol diskrace -dist-n 3 -dist-slices 3
//	          -dist-max-depth 0 -dist-lease 2s -dist-dir dir]
//	provesrv -verify-ledger path/to/ledger.seg
//
// With -coordinator the server additionally mounts a distributed shard
// coordinator under /dist/ (see internal/dist): `spacebound -shard` workers
// attach to it, lease fingerprint slices, and explore the configured run
// with crash-tolerant leases and checkpointed recovery. Shard health shows
// up on the obs endpoint's /progress. The coordinator's barrier state is
// journalled under -dist-dir (default <data-dir>/dist) and recovered on
// boot, so killing provesrv mid-run loses no coordinated progress either.
//
// Everything the server must not lose lives under -data-dir: one directory
// per job (spec, status, checkpoints, witness artifact, trace) plus the
// append-only witness ledger. Kill the process however you like — SIGKILL
// included — and the next start's recovery sweep re-enqueues interrupted
// jobs, resumes them from their checkpoints, and re-ledgers any finished
// witness the ledger missed. SIGTERM/SIGINT instead drain gracefully: stop
// admitting (submits get 503, /readyz flips to 503), checkpoint running
// jobs, flush the ledger, exit 0.
//
// HTTP status taxonomy: 202 job accepted, 200 OK, 400 invalid spec,
// 404 unknown job/proof, 409 witness requested before the job is done,
// 429 queue saturated (with Retry-After), 503 draining.
//
// Exit codes: 0 clean shutdown (or intact ledger with -verify-ledger),
// 4 when -verify-ledger finds corruption or a broken hash chain, 1 on any
// other failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/server"
)

// errLedgerCorrupt maps -verify-ledger failures to exit code 4, matching
// cmd/spacebound's "verification failed" code.
var errLedgerCorrupt = errors.New("ledger verification failed")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "provesrv:", err)
		if errors.Is(err, errLedgerCorrupt) {
			os.Exit(4)
		}
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "job API listen address")
	dataDir := flag.String("data-dir", "./provesrv-data", "root of all persistent state (jobs, checkpoints, ledger)")
	jobs := flag.Int("jobs", 2, "concurrent proof jobs")
	queue := flag.Int("queue", 8, "admission queue depth; beyond it submits get 429")
	maxAttempts := flag.Int("max-attempts", 5, "attempts per job before retries-exhausted")
	retryBase := flag.Duration("retry-base", 500*time.Millisecond, "base retry backoff (doubles per attempt)")
	retryMax := flag.Duration("retry-max", 30*time.Second, "retry backoff cap")
	defaultTimeout := flag.Duration("default-timeout", 0, "per-attempt budget for specs that set none (0 = unbounded)")
	ckptEvery := flag.Duration("checkpoint-every", 2*time.Second, "minimum interval between job snapshots")
	batchSize := flag.Int("batch-size", 16, "witnesses per ledger Merkle batch")
	batchWait := flag.Duration("batch-wait", 500*time.Millisecond, "max time a witness waits for a full batch")
	debugAddr := flag.String("debug-addr", "", "observability endpoint (/debug/pprof, /metrics, /timeseries, /progress, /healthz, /readyz; empty = off)")
	traceOut := flag.String("trace-out", "", "server-level JSONL trace (empty = off, - = stderr); job spans are teed in, tagged by trace ID")
	recordEvery := flag.Duration("record-every", 0, "flight-recorder sampling interval for /timeseries (0 = 1s default, negative = off)")
	verifyLedger := flag.String("verify-ledger", "", "verify this ledger file and exit (no server)")
	coordinator := flag.Bool("coordinator", false, "also mount a distributed-exploration coordinator under /dist/ (see -dist-* flags)")
	distProtocol := flag.String("dist-protocol", "diskrace", "protocol the coordinated run explores")
	distN := flag.Int("dist-n", 3, "process count of the coordinated run")
	distSlices := flag.Int("dist-slices", 3, "fingerprint slices of the coordinated run")
	distMaxDepth := flag.Int("dist-max-depth", 0, "depth cap of the coordinated run (0 = unbounded)")
	distLease := flag.Duration("dist-lease", 2*time.Second, "shard lease; a worker silent for longer loses its slices")
	distDir := flag.String("dist-dir", "", "coordinator journal directory (default <data-dir>/dist); a restart recovers the coordinated run from it")
	flag.Parse()

	if *verifyLedger != "" {
		batches, items, err := ledger.VerifyLedger(*verifyLedger)
		if err != nil {
			return fmt.Errorf("%w: %v", errLedgerCorrupt, err)
		}
		fmt.Printf("ledger intact: %d batches, %d witnesses, chain verified\n", batches, items)
		return nil
	}

	scope, stopObs, err := obs.Start(obs.Config{TraceOut: *traceOut, DebugAddr: *debugAddr, RecordEvery: *recordEvery})
	if err != nil {
		return err
	}
	defer func() {
		if err := stopObs(); err != nil {
			fmt.Fprintln(os.Stderr, "provesrv: observability shutdown:", err)
		}
	}()
	if scope == nil {
		// The server still wants metrics/readiness even with no endpoint
		// configured; a scope without a tracer is nearly free.
		scope = obs.NewScope(nil)
	}

	srv, err := server.New(server.Options{
		DataDir:         *dataDir,
		Workers:         *jobs,
		QueueDepth:      *queue,
		MaxAttempts:     *maxAttempts,
		RetryBase:       *retryBase,
		RetryMax:        *retryMax,
		DefaultTimeout:  *defaultTimeout,
		CheckpointEvery: *ckptEvery,
		BatchSize:       *batchSize,
		BatchWait:       *batchWait,
		Scope:           scope,
	})
	if err != nil {
		return err
	}

	var mounts []server.Mount
	if *coordinator {
		run, err := dist.NewRun(*distProtocol, *distN, *distSlices, *distMaxDepth, *distLease)
		if err != nil {
			return err
		}
		coord, err := run.Coordinator(scope)
		if err != nil {
			return err
		}
		scope.SetShardHealth(coord.ShardHealth)
		// The coordinator's barrier state is as durable as the job state:
		// journalled under -data-dir, recovered synchronously before the
		// listener opens, so a restarted provesrv resumes the coordinated
		// run at the exact level it died in.
		dir := *distDir
		if dir == "" {
			dir = filepath.Join(*dataDir, "dist")
		}
		j, err := dist.OpenJournal(dir, dist.JournalOptions{Scope: scope})
		if err != nil {
			return err
		}
		if err := coord.AttachJournal(j); err != nil {
			return err
		}
		if coord.Recovering() {
			fmt.Fprintf(os.Stderr, "provesrv: dist journal %s holds a prior run, recovering\n", dir)
			if err := coord.Recover(); err != nil {
				return fmt.Errorf("dist journal recovery: %w", err)
			}
			st := coord.Status()
			fmt.Fprintf(os.Stderr, "provesrv: coordinator recovered to level %d, generation %d\n", st.Level, st.Gen)
		}
		mounts = append(mounts, server.Mount{Pattern: "/dist/", Handler: coord.Handler()})
		fmt.Fprintf(os.Stderr, "provesrv: coordinating %s n=%d over %d slices\n", *distProtocol, *distN, *distSlices)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(mounts...), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	// The bound address on its own stderr line so scripts (and the e2e
	// test) can find it when -addr uses port 0.
	fmt.Fprintf(os.Stderr, "provesrv: listening on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "provesrv: %s received, draining\n", got)
	}

	// Drain: finish in-flight HTTP exchanges, then checkpoint and park the
	// running jobs and flush the ledger. Everything is bounded so a stuck
	// disk cannot turn SIGTERM into a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "provesrv: http shutdown:", err)
	}
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "provesrv: drained, state persisted")
	return nil
}
