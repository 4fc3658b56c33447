// Command spacebound runs the paper's Theorem 1 adversary against a
// consensus protocol and prints the witness: an execution after which n-1
// distinct registers are covered or written (experiment E1), optionally as
// a Graphviz figure in the style of the paper's Figure 4 (experiment E4).
//
// Usage:
//
//	spacebound [-protocol diskrace] [-n 3] [-max-configs 0] [-workers 0] [-timeout 0] [-figures] [-transcript]
//	           [-debug-addr host:port] [-trace-out trace.jsonl]
//	           [-checkpoint-dir dir] [-checkpoint-every 30s] [-resume] [-spill-budget bytes]
//	           [-witness-out witness.txt] [-server http://host:port]
//	spacebound -coordinator host:port [-protocol p] [-n n] [-dist-slices 3]
//	           [-dist-max-depth 0] [-dist-lease 2s] [-dist-linger 2s] [-witness-out w.txt]
//	           [-dist-journal dir] [-dist-journal-fault enospc@bytes=N]
//	spacebound -shard http://host:port [-shard-id id] [-shard-fault kill@level=3]
//	spacebound -dist-sequential [-protocol p] [-n n] [-dist-max-depth 0] [-witness-out w.txt]
//	spacebound -chaos "coord:kill@level=4; worker:victim:kill@level=3; worker:w1; worker:w2"
//	           [-protocol p] [-n n] [-dist-slices 3] [-dist-max-depth 0] [-dist-lease 2s]
//	           [-dist-journal dir] [-witness-out w.txt]
//
// The dist modes run the crash-tolerant sharded exploration
// (internal/dist): -coordinator hosts the lease/barrier coordinator (plus
// /metrics and /progress with per-shard health) and prints the merged
// witness when the run completes; -shard joins a coordinator as one shard
// worker, with -shard-fault scripting a mid-run crash or stall for chaos
// testing; -dist-sequential runs the single-process reference whose witness
// a distributed run must reproduce byte for byte.
//
// -dist-journal makes the coordinator crash-recoverable: barrier marks,
// slice checkpoints, and retained exchange chunks are persisted to a
// write-ahead journal plus periodic snapshots in that directory, and a
// coordinator restarted over the same directory resumes the barrier at the
// exact level it died in (leases are not persisted — workers
// re-acquire under a fenced new generation). -dist-journal-fault injects
// filesystem faults into the journal's writes for testing; a faulted
// journal degrades to memory-only operation rather than failing the run.
//
// -chaos executes a whole scripted failure schedule in one invocation: it
// spawns a journalled coordinator and the scheduled workers as child
// processes, SIGKILLs the coordinator at the scripted level, restarts it
// from the journal, asserts every healthy worker rode through the outage,
// and compares the merged witness byte-for-byte against the sequential
// reference it computes first. See internal/faults.ParseChaosSchedule for
// the directive syntax.
//
// -server submits the construction to a running provesrv instance instead
// of executing it locally: the job is posted to the server's /jobs API,
// polled until it settles, and the served witness is printed along with
// its verified Merkle inclusion proof from the server's witness ledger.
// -protocol, -n, -max-configs, -workers and -timeout describe the job
// exactly as they would a local run ( -timeout becomes the job's
// per-attempt budget server-side and also bounds the client's wait).
//
// -debug-addr starts the live observability endpoint (/debug/pprof,
// /debug/vars, /progress) for watching or profiling a long construction;
// -trace-out streams the construction's phase spans and exploration levels
// as JSONL ("-" for stderr).
//
// -checkpoint-dir enables crash-safe snapshots of the construction (valency
// memo, proof stage, in-flight BFS frontier) every -checkpoint-every;
// -resume restarts from the newest intact snapshot in that directory, and
// with Workers:1 the resumed run's witness is byte-identical to an
// uninterrupted one. -spill-budget bounds the in-memory BFS frontier,
// spilling cold chunks to <checkpoint-dir>/spill beyond it. -witness-out
// writes the rendered witness atomically alongside a .sha256 sidecar.
//
// Every completed witness is re-verified by an independent replay
// (check.VerifyWitness) before the program exits 0.
//
// Exit codes: 0 on a complete, verified witness, 3 when a -timeout or
// -max-configs budget interrupted the construction (the partial progress is
// printed to stderr; with -server, also when the client's wait timed out),
// 4 if the finished witness fails independent verification (with -server:
// the inclusion proof or witness hash does not verify), 1 on any other
// failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// errVerifyFailed tags a witness that completed but failed the independent
// replay audit; main maps it to exit code 4.
var errVerifyFailed = errors.New("witness failed independent verification")

// errInterrupted tags a remote wait stopped by the client's own budget;
// main maps it to exit code 3, like a local budget interruption.
var errInterrupted = errors.New("interrupted while waiting for the server")

func main() {
	if err := run(); err != nil {
		var partial *adversary.Partial
		if errors.As(err, &partial) {
			fmt.Fprintln(os.Stderr, "spacebound: search interrupted; progress so far:")
			fmt.Fprintln(os.Stderr, partial.String())
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "spacebound:", err)
		switch {
		case errors.Is(err, errInterrupted):
			os.Exit(3)
		case errors.Is(err, errVerifyFailed):
			os.Exit(4)
		}
		os.Exit(1)
	}
}

func run() error {
	protocol := flag.String("protocol", core.ProtocolDiskRace, "protocol to attack (diskrace, flood)")
	n := flag.Int("n", 3, "number of processes")
	maxConfigs := flag.Int("max-configs", 0, "cap per valency query (0 = default)")
	workers := flag.Int("workers", 0, "exploration workers per valency query (0 = GOMAXPROCS, 1 = sequential)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole construction (0 = none)")
	figures := flag.Bool("figures", false, "emit the witness as Graphviz DOT (paper Figure 4 style)")
	transcript := flag.Bool("transcript", false, "print the full step-by-step execution")
	debugAddr := flag.String("debug-addr", "", "listen address for /debug/pprof, /debug/vars, /metrics, /timeseries and /progress (empty = off)")
	traceOut := flag.String("trace-out", "", "JSONL trace output path (empty = off, - = stderr)")
	recordEvery := flag.Duration("record-every", 0, "flight-recorder sampling interval for /timeseries (0 = 1s default, negative = off)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for crash-safe snapshots (empty = off)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "minimum interval between snapshots")
	resume := flag.Bool("resume", false, "resume from the newest snapshot in -checkpoint-dir")
	spillBudget := flag.Int64("spill-budget", 0, "approximate in-memory frontier budget in bytes; beyond it cold chunks spill to <checkpoint-dir>/spill (0 = never spill)")
	witnessOut := flag.String("witness-out", "", "write the rendered witness here atomically, with a .sha256 sidecar (empty = off)")
	serverURL := flag.String("server", "", "submit to a provesrv instance at this base URL instead of running locally")
	df := distFlags{}
	flag.StringVar(&df.coordinator, "coordinator", "", "host a distributed-exploration coordinator on this address instead of running the adversary (uses -protocol, -n and the -dist-* flags)")
	flag.StringVar(&df.shard, "shard", "", "join the coordinator at this base URL as a shard worker instead of running the adversary")
	flag.BoolVar(&df.sequential, "dist-sequential", false, "run the single-process reference of a distributed exploration and print its witness")
	flag.StringVar(&df.shardID, "shard-id", "", "this shard worker's id (default shard-<pid>)")
	flag.StringVar(&df.shardFault, "shard-fault", "", "scripted worker fault: kill@level=L or stall@level=L:dur=D")
	flag.Int64Var(&df.shardSeed, "shard-seed", 0, "jitter seed for this shard worker's retry backoff (0 = pid)")
	flag.IntVar(&df.slices, "dist-slices", 3, "fingerprint slices of the coordinated run")
	flag.IntVar(&df.maxDepth, "dist-max-depth", 0, "depth cap of the coordinated run (0 = unbounded)")
	flag.DurationVar(&df.lease, "dist-lease", 2*time.Second, "shard lease; a worker silent for longer loses its slices")
	flag.DurationVar(&df.linger, "dist-linger", 2*time.Second, "how long the coordinator keeps serving after the run completes")
	flag.IntVar(&df.corruptGets, "dist-corrupt-gets", 0, "serve the first N chunk GETs corrupted (fault injection for tests)")
	flag.StringVar(&df.journalDir, "dist-journal", "", "coordinator journal directory; a restart over the same directory recovers the run (empty = memory-only)")
	flag.StringVar(&df.journalFault, "dist-journal-fault", "", "filesystem fault against journal writes: enospc@bytes=N, shortwrite@write=K or syncfail")
	flag.StringVar(&df.chaos, "chaos", "", "execute a chaos schedule (see internal/faults.ParseChaosSchedule) against a journalled coordinator and scripted workers")
	flag.Parse()

	if df.coordinator != "" || df.shard != "" || df.sequential || df.chaos != "" {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		switch {
		case df.chaos != "":
			return runChaos(ctx, df, *protocol, *n, *witnessOut)
		case df.coordinator != "":
			scope, stopObs, err := obs.Start(obs.Config{TraceOut: *traceOut, DebugAddr: *debugAddr, RecordEvery: *recordEvery})
			if err != nil {
				return err
			}
			defer func() {
				if err := stopObs(); err != nil {
					fmt.Fprintln(os.Stderr, "spacebound: observability shutdown:", err)
				}
			}()
			return runCoordinator(df, *protocol, *n, scope, *witnessOut)
		case df.shard != "":
			return runShard(ctx, df, nil)
		default:
			return runDistSequential(ctx, df, *protocol, *n, *witnessOut)
		}
	}

	if *serverURL != "" {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		return runRemote(ctx, *serverURL, server.JobSpec{
			Protocol:   *protocol,
			N:          *n,
			MaxConfigs: *maxConfigs,
			Workers:    *workers,
			TimeoutMS:  timeout.Milliseconds(),
		}, *witnessOut)
	}

	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *spillBudget > 0 && *ckptDir == "" {
		return fmt.Errorf("-spill-budget requires -checkpoint-dir (spill files live under it)")
	}

	m, opts, err := core.Machine(*protocol)
	if err != nil {
		return err
	}
	if *maxConfigs > 0 {
		opts.MaxConfigs = *maxConfigs
	}
	opts.Workers = *workers
	scope, stopObs, err := obs.Start(obs.Config{TraceOut: *traceOut, DebugAddr: *debugAddr, RecordEvery: *recordEvery})
	if err != nil {
		return err
	}
	defer func() {
		if err := stopObs(); err != nil {
			fmt.Fprintln(os.Stderr, "spacebound: observability shutdown:", err)
		}
	}()
	opts.Obs = scope
	if *spillBudget > 0 {
		opts.SpillDir = filepath.Join(*ckptDir, "spill")
		opts.SpillBudget = *spillBudget
		if err := os.MkdirAll(opts.SpillDir, 0o755); err != nil {
			return fmt.Errorf("spill dir: %w", err)
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	engine, coord, snap, err := adversary.Open(opts, *protocol, *n, *ckptDir, *ckptEvery, *resume, scope)
	if err != nil {
		return fmt.Errorf("checkpoint dir %s: %w", *ckptDir, err)
	}
	if snap != nil {
		fmt.Fprintf(os.Stderr, "spacebound: resuming from snapshot %d, stage %q (%d memoised verdicts, in-flight query depth %d)\n",
			snap.Meta.Seq, snap.Meta.Stage, snap.MemoVerdicts(), snap.QueryDepth())
	}
	w, err := engine.Theorem1(ctx, m, *n)
	if err != nil {
		return err
	}
	// Persist the completed run's memo so a later invocation over the same
	// directory replays the whole construction from memo alone.
	if err := coord.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "spacebound: final checkpoint:", err)
	}

	fmt.Println(w)
	fmt.Println()
	fmt.Print(trace.CoverTable(w))
	stats := engine.Oracle().Stats()
	fmt.Printf("\nvalency oracle: %d queries (%d memoised), %d solo searches (%d memoised), %d configurations searched\n",
		stats.Queries, stats.Hits, stats.SoloQueries, stats.SoloHits, stats.Configs)
	if writes, bytes := coord.Stats(); writes > 0 {
		fmt.Printf("checkpoints: %d written, %d bytes\n", writes, bytes)
	}

	if *transcript {
		initial := model.NewConfig(m, w.Inputs)
		fmt.Println("\nexecution transcript:")
		fmt.Print(trace.Transcript(initial, w.Execution))
	}
	if *figures {
		fmt.Println()
		fmt.Print(trace.Theorem1DOT(w))
	}

	if *witnessOut != "" {
		if err := checkpoint.WriteArtifact(*witnessOut, []byte(trace.RenderWitness(w))); err != nil {
			return fmt.Errorf("witness artifact: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spacebound: witness written to %s (+.sha256)\n", *witnessOut)
	}

	// Independent audit: replay the witness against raw protocol semantics.
	if err := check.VerifyWitness(m, w); err != nil {
		return fmt.Errorf("%w: %v", errVerifyFailed, err)
	}
	fmt.Fprintln(os.Stderr, "spacebound: witness verified by independent replay")
	return nil
}
