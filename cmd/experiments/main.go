// Command experiments regenerates every experiment table of EXPERIMENTS.md
// from live runs, in Markdown, so the documented numbers are always
// reproducible with one command:
//
//	go run ./cmd/experiments [-heavy] [-debug-addr host:port] [-trace-out trace.jsonl]
//	                         [-checkpoint-dir dir] [-checkpoint-every 30s] [-resume]
//
// -heavy additionally runs the slow rows (larger n for the adversary and
// bounded model checking), which take minutes — exactly the runs worth
// watching via -debug-addr (live /progress and /debug/pprof) or recording
// via -trace-out (JSONL phase spans).
//
// -checkpoint-dir snapshots each E1 adversary row into its own
// subdirectory (<dir>/<protocol>-n<k>) every -checkpoint-every; -resume
// restarts each row from its newest snapshot, running rows with no
// snapshot from scratch, so a killed -heavy sweep loses at most one row's
// progress.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/checkpoint"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/encdec"
	"repro/internal/explore"
	"repro/internal/leader"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/perturb"
	"repro/internal/valency"
)

// ckptConfig carries the checkpoint flags into each E1 adversary row.
type ckptConfig struct {
	dir    string
	every  time.Duration
	resume bool
}

// engineFor builds the adversary engine for one E1 row, checkpointing into
// a per-row subdirectory and resuming from its newest snapshot when asked.
// A -resume row with no (or an incompatible) snapshot starts fresh rather
// than failing: experiments is a batch sweep, and partial coverage of the
// checkpoint directory is the normal state after a mid-sweep kill.
func engineFor(opts explore.Options, scope *obs.Scope, protocol string, n int, cfg ckptConfig) (*adversary.Engine, *checkpoint.Coordinator, error) {
	dir := ""
	if cfg.dir != "" {
		dir = filepath.Join(cfg.dir, fmt.Sprintf("%s-n%d", protocol, n))
	}
	engine, coord, snap, err := adversary.Open(opts, protocol, n, dir, cfg.every, cfg.resume, scope)
	switch {
	case snap != nil:
		fmt.Fprintf(os.Stderr, "experiments: %s n=%d resuming from snapshot %d, stage %q\n",
			protocol, n, snap.Meta.Seq, snap.Meta.Stage)
	case errors.Is(err, checkpoint.ErrStaleSnapshot):
		fmt.Fprintf(os.Stderr, "experiments: %s n=%d: %v, starting fresh\n", protocol, n, err)
	case err != nil && !errors.Is(err, checkpoint.ErrNoCheckpoint):
		return nil, nil, err
	}
	return engine, coord, nil
}

func main() {
	heavy := flag.Bool("heavy", false, "include slow rows (minutes)")
	debugAddr := flag.String("debug-addr", "", "listen address for /debug/pprof, /debug/vars, /metrics, /timeseries and /progress (empty = off)")
	traceOut := flag.String("trace-out", "", "JSONL trace output path (empty = off, - = stderr)")
	recordEvery := flag.Duration("record-every", 0, "flight-recorder sampling interval for /timeseries (0 = 1s default, negative = off)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for per-row crash-safe snapshots (empty = off)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "minimum interval between snapshots")
	resume := flag.Bool("resume", false, "resume each adversary row from its newest snapshot in -checkpoint-dir")
	flag.Parse()
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -checkpoint-dir")
		os.Exit(1)
	}
	scope, stopObs, err := obs.Start(obs.Config{TraceOut: *traceOut, DebugAddr: *debugAddr, RecordEvery: *recordEvery})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	runErr := run(*heavy, scope, ckptConfig{dir: *ckptDir, every: *ckptEvery, resume: *resume})
	if err := stopObs(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: observability shutdown:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

func run(heavy bool, scope *obs.Scope, ckpt ckptConfig) error {
	fmt.Println("## E1 — Theorem 1: the adversary forces n-1 distinct registers")
	fmt.Println()
	fmt.Println("| protocol | n | registers witnessed | bound n-1 | execution steps | covering rounds | oracle configs |")
	fmt.Println("|---|---|---|---|---|---|---|")
	type attack struct {
		machine model.Machine
		opts    explore.Options
		n       int
	}
	attacks := []attack{
		{consensus.Flood{}, explore.Options{}, 2},
		{consensus.DiskRace{}, explore.Options{Canon: consensus.DiskRace{}}, 2},
		{consensus.DiskRace{}, explore.Options{Canon: consensus.DiskRace{}}, 3},
	}
	for _, a := range attacks {
		a.opts.Obs = scope
		engine, coord, err := engineFor(a.opts, scope, a.machine.Name(), a.n, ckpt)
		if err != nil {
			return fmt.Errorf("E1 %s n=%d: %w", a.machine.Name(), a.n, err)
		}
		w, err := engine.Theorem1(context.Background(), a.machine, a.n)
		if err != nil {
			return fmt.Errorf("E1 %s n=%d: %w", a.machine.Name(), a.n, err)
		}
		if err := coord.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s n=%d final checkpoint: %v\n", a.machine.Name(), a.n, err)
		}
		st := engine.Oracle().Stats()
		fmt.Printf("| %s | %d | %d | %d | %d | %d | %d |\n",
			w.Protocol, w.N, w.Registers, w.N-1, len(w.Execution), w.Rounds, st.Configs)
	}
	fmt.Println()

	fmt.Println("## E2 — Upper bound: DiskRace writes exactly n registers (native, racing)")
	fmt.Println()
	fmt.Println("| n | registers written | reads | writes |")
	fmt.Println("|---|---|---|---|")
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		d := native.NewDiskRace(n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for pid := 0; pid < n; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				_, errs[pid] = d.Propose(pid, pid%2)
			}(pid)
		}
		wg.Wait()
		for pid, err := range errs {
			if err != nil {
				return fmt.Errorf("E2 n=%d p%d: %w", n, pid, err)
			}
		}
		s := d.Stats()
		fmt.Printf("| %d | %d | %d | %d |\n", n, s.Touched, s.Reads, s.Writes)
	}
	fmt.Println()

	fmt.Println("## E3 — Proposition 2: initial bivalence (exact valency queries)")
	fmt.Println()
	fmt.Println("| protocol | n | {p0} decides | {p1} decides | {p0,p1} bivalent | configs searched |")
	fmt.Println("|---|---|---|---|---|---|")
	props := []attack{
		{consensus.Flood{}, explore.Options{}, 2},
		{consensus.Flood{}, explore.Options{}, 3},
		{consensus.DiskRace{}, explore.Options{Canon: consensus.DiskRace{}}, 3},
	}
	for _, a := range props {
		a.opts.Obs = scope
		oracle := valency.New(a.opts)
		engine := adversary.New(oracle)
		if _, err := engine.InitialBivalent(context.Background(), a.machine, a.n); err != nil {
			return fmt.Errorf("E3: %w", err)
		}
		fmt.Printf("| %s | %d | {0} | {1} | yes | %d |\n", a.machine.Name(), a.n, oracle.Stats().Configs)
	}
	fmt.Println()

	fmt.Println("## E5 — Perturbation (JTT): counters need n-1 registers and n-1 solo steps")
	fmt.Println()
	fmt.Println("| n | registers covered | bound n-1 | reader solo steps |")
	fmt.Println("|---|---|---|---|")
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		w, err := perturb.NewAdversary(perturb.SWCounter{}).Run(n)
		if err != nil {
			return fmt.Errorf("E5 n=%d: %w", n, err)
		}
		fmt.Printf("| %d | %d | %d | %d |\n", n, w.Registers, n-1, w.ReaderSoloSteps)
	}
	fmt.Println()

	fmt.Println("## E6 — Mutex cost (Fan-Lynch): state-change model, round-robin canonical executions")
	fmt.Println()
	fmt.Println("| n | peterson | bakery | tournament | log2(n!) | peterson/(n·lg n) | tournament/(n·lg n) |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, n := range []int{4, 8, 16, 32, 64} {
		p, err := mutex.Run(mutex.Peterson{}, n, mutex.RoundRobin())
		if err != nil {
			return err
		}
		bk, err := mutex.Run(mutex.Bakery{}, n, mutex.RoundRobin())
		if err != nil {
			return err
		}
		tr, err := mutex.Run(mutex.Tournament{}, n, mutex.RoundRobin())
		if err != nil {
			return err
		}
		nlgn := float64(n) * math.Log2(float64(n))
		fmt.Printf("| %d | %d | %d | %d | %d | %.2f | %.2f |\n",
			n, p.Cost, bk.Cost, tr.Cost, encdec.FactorialBits(n),
			float64(p.Cost)/nlgn, float64(tr.Cost)/nlgn)
	}
	fmt.Println()

	fmt.Println("## E12 — Valency landscape of the verified n=2 protocol (FLP structure, quantified)")
	fmt.Println()
	fmt.Println("| inputs | configurations | bivalent | 0-univalent | 1-univalent | with decisions |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, inputs := range [][]model.Value{{"0", "1"}, {"1", "1"}, {"0", "0"}} {
		oracle := valency.New(explore.Options{Obs: scope})
		c := model.NewConfig(consensus.Flood{}, inputs)
		rep, err := oracle.Profile(context.Background(), "flood", c, []int{0, 1})
		if err != nil {
			return fmt.Errorf("E12: %w", err)
		}
		fmt.Printf("| (%s,%s) | %d | %d | %d | %d | %d |\n",
			string(inputs[0]), string(inputs[1]), rep.Total(), rep.Bivalent, rep.Zero, rep.One, rep.Decided)
	}
	fmt.Println()

	fmt.Println("## E7 — Encoder/decoder: CS order in ⌈log₂ n!⌉ bits, decoded by re-simulation")
	fmt.Println()
	fmt.Println("| n | bits | cost (tournament) | round trip |")
	fmt.Println("|---|---|---|---|")
	for _, n := range []int{4, 8, 16, 32, 64} {
		perm := rand.New(rand.NewSource(int64(n))).Perm(n)
		enc, err := encdec.EncodeExecution(mutex.Tournament{}, perm)
		if err != nil {
			return err
		}
		back, _, err := encdec.DecodeExecution(mutex.Tournament{}, enc)
		if err != nil {
			return err
		}
		ok := "ok"
		for i := range perm {
			if back[i] != perm[i] {
				ok = "FAILED"
			}
		}
		fmt.Printf("| %d | %d | %d | %s |\n", n, enc.BitLen, enc.Cost, ok)
	}
	fmt.Println()

	fmt.Println("## E8 — Weak leader election: registers used (contrast with consensus)")
	fmt.Println()
	fmt.Println("| n | registers (announce + bitwise consensus) | exactly one leader |")
	fmt.Println("|---|---|---|")
	for _, n := range []int{2, 4, 8, 16} {
		e := leader.NewElection(n)
		leaders := 0
		errs := make([]error, n)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for pid := 0; pid < n; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				won, err := e.Run(pid)
				if err != nil {
					errs[pid] = err
					return
				}
				if won {
					mu.Lock()
					leaders++
					mu.Unlock()
				}
			}(pid)
		}
		wg.Wait()
		for pid, err := range errs {
			if err != nil {
				return fmt.Errorf("E8 n=%d p%d: %w", n, pid, err)
			}
		}
		fmt.Printf("| %d | %d | %t |\n", n, e.Registers(), leaders == 1)
	}
	fmt.Println()

	fmt.Println("## E9 — Randomized consensus: rounds and coin flips")
	fmt.Println()
	fmt.Println("| n | trials | max rounds | mean total flips |")
	fmt.Println("|---|---|---|---|")
	for _, n := range []int{2, 4, 8, 16} {
		const trials = 10
		maxRounds, totalFlips := 0, 0
		for trial := 0; trial < trials; trial++ {
			r := native.NewRandomized(n)
			results := make([]native.Result, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for pid := 0; pid < n; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(trial*997 + pid)))
					results[pid], errs[pid] = r.Propose(pid, pid%2, rng)
				}(pid)
			}
			wg.Wait()
			for pid, err := range errs {
				if err != nil {
					return fmt.Errorf("E9 n=%d trial %d p%d: %w", n, trial, pid, err)
				}
			}
			for _, res := range results {
				totalFlips += res.Flips
				if res.Round+1 > maxRounds {
					maxRounds = res.Round + 1
				}
			}
		}
		fmt.Printf("| %d | %d | %d | %d |\n", n, trials, maxRounds, totalFlips/trials)
	}
	fmt.Println()

	if heavy {
		fmt.Println("## E2b — Model checking (heavy): verification substrate")
		fmt.Println()
		fmt.Println("| protocol | n | configs | verdict |")
		fmt.Println("|---|---|---|---|")
		rows := []struct {
			name string
			n    int
		}{
			{core.ProtocolFlood, 2},
			{core.ProtocolGreedyFlood, 2},
			{core.ProtocolEagerFlood, 3},
			{core.ProtocolFlood, 3},
			{core.ProtocolDiskRace, 2},
		}
		for _, row := range rows {
			m, opts, err := core.Machine(row.name)
			if err != nil {
				return err
			}
			opts.Obs = scope
			report, err := check.Consensus(context.Background(), m, row.n, check.Options{Explore: opts, SkipSolo: row.n > 2})
			if err != nil {
				return err
			}
			verdict := "ok"
			if !report.OK() {
				verdict = report.Violations[0].Kind.String() + " violation found (expected for broken variants)"
			}
			fmt.Printf("| %s | %d | %d | %s |\n", row.name, row.n, report.Configs, verdict)
		}
		fmt.Println()
	}
	return nil
}
