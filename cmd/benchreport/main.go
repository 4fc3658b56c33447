// Command benchreport runs a fixed exploration benchmark suite and emits a
// machine-readable perf trajectory (BENCH_explore.json): configurations per
// second, allocations per configuration and peak frontier size for the
// sequential and parallel engines, plus end-to-end Theorem 1 wall-clock
// rows. CI uploads the file as an artifact on every run so regressions in
// the exploration hot path show up as a broken trend, not an anecdote.
//
// Usage:
//
//	benchreport [-out BENCH_explore.json] [-check] [-baseline old.json]
//	            [-debug-addr host:port] [-trace-out trace.jsonl] [-record-every 250ms]
//	            [-checkpoint-dir dir] [-checkpoint-every 5s] [-resume]
//
// Every run records the final observability snapshot (memo hit rates, peak
// frontier, dedup hits) in the report's "metrics" object and the flight
// recorder's time-series ring (sampled at -record-every across every row,
// ticked at each BFS level boundary) in "timeseries", so the perf
// trajectory tracks cache behaviour over time alongside configs/sec;
// -debug-addr and -trace-out additionally expose the run live.
//
// The suite always ends with a checkpointed repeat of the Theorem 1 n=4
// row and embeds its snapshot counters plus the overhead fraction versus
// the unchecked row in the report's "checkpoint" object, so the cost of
// crash safety is part of the perf trajectory (target: < 5% at the default
// -checkpoint-every 5s). -checkpoint-dir persists those snapshots (and
// lets -resume fast-forward the row); without it they go to a temp
// directory that is deleted on exit.
//
// Each reach row is best-of-3 (configs/sec is a capability metric; runner
// noise only ever subtracts from it) and the DiskRace rows carry
// pack_ns_per_config / hash_ns_per_config columns decomposing the hot path
// into its packed-codec and fingerprint halves.
//
// With -check the command exits non-zero on perf-floor violations: the
// parallel engine's configs/sec on the DiskRace n=3 reference workload
// below half of the sequential engine's (a floor, not a target: on
// multi-core runners the expected ratio is well above 1, and on a
// single-core machine the parallel configuration degrades to the
// sequential inline path and the ratio sits near 1), or a sequential
// DiskRace row allocating more than 4 allocs per visited configuration.
//
// With -baseline the report is compared against a previous one and the
// command exits non-zero if any reach row present in both regressed more
// than 20% in configs/sec — the CI bench-compare job runs the merge-base's
// benchreport and gates the PR's report against it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/valency"
)

// Run is one benchmark row.
type Run struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`
	Configs       int     `json:"configs"`
	Steps         int     `json:"steps"`
	PeakFrontier  int     `json:"peak_frontier"`
	Capped        bool    `json:"capped"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	ConfigsPerSec float64 `json:"configs_per_sec"`
	AllocsPerCfg  float64 `json:"allocs_per_config"`
	BytesPerCfg   float64 `json:"bytes_per_config"`
	// PackNsPerCfg and HashNsPerCfg decompose the hot path: nanoseconds to
	// pack one configuration of this workload into its codec record, and
	// to stream+hash its canonical key, measured steady-state over a
	// sample of the reachable space.
	PackNsPerCfg float64 `json:"pack_ns_per_config,omitempty"`
	HashNsPerCfg float64 `json:"hash_ns_per_config,omitempty"`
}

// TheoremRun is one end-to-end Theorem 1 row (experiment E15).
type TheoremRun struct {
	Protocol      string  `json:"protocol"`
	N             int     `json:"n"`
	Checkpointed  bool    `json:"checkpointed,omitempty"`
	Completed     bool    `json:"completed"`
	Registers     int     `json:"registers"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	OracleConfigs int     `json:"oracle_configs"`
	ConfigsPerSec float64 `json:"configs_per_sec"`
	Err           string  `json:"error,omitempty"`
}

// CheckpointStats summarises the checkpointed Theorem 1 n=4 row: how many
// snapshots it wrote, how big they were, and what crash safety cost
// relative to the unchecked row.
type CheckpointStats struct {
	Writes int   `json:"writes"`
	Bytes  int64 `json:"bytes"`
	// OverheadFrac is (checkpointed - plain) / plain elapsed time for the
	// DiskRace n=4 row; the roadmap target is < 0.05 at the default 5s
	// interval.
	OverheadFrac float64 `json:"overhead_frac"`
}

// Report is the whole BENCH_explore.json document.
type Report struct {
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Runs       []Run        `json:"runs"`
	Theorem1   []TheoremRun `json:"theorem1"`
	// SpeedupDiskRaceN3 is parallel/sequential configs-per-second on the
	// DiskRace n=3 reference workload — the ratio -check gates on.
	SpeedupDiskRaceN3 float64 `json:"speedup_diskrace_n3"`
	// Checkpoint reports the checkpointed n=4 row's snapshot counters and
	// overhead versus the unchecked row.
	Checkpoint *CheckpointStats `json:"checkpoint,omitempty"`
	// Metrics is the final observability-registry snapshot of the whole
	// suite: valency memo hit rates, explore peak frontier and dedup
	// hits, lemma 4 rounds — the cache-behaviour half of the perf
	// trajectory.
	Metrics map[string]any `json:"metrics"`
	// Timeseries is the flight recorder's ring at the end of the suite: the
	// per-level trajectory of the scalar metrics (frontier, fpSet load,
	// memo hits, arena occupancy) across every row, sampled no denser than
	// -record-every.
	Timeseries obs.TimeSeries `json:"timeseries"`
}

func diskOpts() explore.Options {
	return explore.Options{
		Canon: consensus.DiskRace{},
	}
}

// measureReach runs the workload reachAttempts times and reports the
// fastest attempt. Configs/sec is a capability metric — scheduler noise and
// neighbouring tenants only ever subtract from it — so best-of-N is the
// stable estimator, and it is what keeps the -baseline regression gate from
// tripping on a noisy runner.
const reachAttempts = 3

func measureReach(name string, c model.Config, pids []int, opts explore.Options) (Run, error) {
	var best Run
	for attempt := 0; attempt < reachAttempts; attempt++ {
		r, err := measureReachOnce(name, c, pids, opts)
		if err != nil {
			return Run{}, err
		}
		if attempt == 0 || r.ConfigsPerSec > best.ConfigsPerSec {
			best = r
		}
	}
	return best, nil
}

func measureReachOnce(name string, c model.Config, pids []int, opts explore.Options) (Run, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := explore.Reach(context.Background(), c, pids, opts, nil)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil && !res.Capped {
		return Run{}, fmt.Errorf("%s: %w", name, err)
	}
	r := Run{
		Name:         name,
		Workers:      opts.Workers,
		Configs:      res.Count,
		Steps:        res.Steps,
		PeakFrontier: res.PeakFrontier,
		Capped:       res.Capped,
		ElapsedSec:   elapsed.Seconds(),
	}
	if elapsed > 0 {
		r.ConfigsPerSec = float64(res.Count) / elapsed.Seconds()
	}
	if res.Count > 0 {
		r.AllocsPerCfg = float64(after.Mallocs-before.Mallocs) / float64(res.Count)
		r.BytesPerCfg = float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Count)
	}
	return r, nil
}

// measurePackHash samples the workload's reachable space and times the two
// packed-path primitives steady-state: PackTo into a warm codec and a
// streamed canonical-key hash. Per-configuration nanoseconds for both feed
// the pack_ns_per_config / hash_ns_per_config columns.
func measurePackHash(c model.Config, pids []int, opts explore.Options, sample int) (packNs, hashNs float64, err error) {
	opts.Workers = 1
	opts.MaxConfigs = sample
	var cfgs []model.Config
	_, rerr := explore.Reach(context.Background(), c, pids, opts, func(v explore.Visit) bool {
		cfgs = append(cfgs, v.Config.Clone())
		return true
	})
	if rerr != nil && len(cfgs) < sample-1 {
		return 0, 0, rerr
	}
	if len(cfgs) == 0 {
		return 0, 0, fmt.Errorf("pack/hash sample is empty")
	}

	codec := model.NewPackedCodec(c)
	dst := make([]uint64, codec.Words())
	for _, cfg := range cfgs { // warm the dictionaries
		if err := codec.PackTo(dst, cfg); err != nil {
			return 0, 0, err
		}
	}
	timeIt := func(op func(model.Config)) float64 {
		const minWindow = 50 * time.Millisecond
		ops := 0
		start := time.Now()
		for time.Since(start) < minWindow {
			for _, cfg := range cfgs {
				op(cfg)
			}
			ops += len(cfgs)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	packNs = timeIt(func(cfg model.Config) { _ = codec.PackTo(dst, cfg) })
	fper := opts.NewFingerprinter()
	hashNs = timeIt(func(cfg model.Config) { _ = fper.Fingerprint(cfg) })
	return packNs, hashNs, nil
}

func measureTheorem1(protocol model.Machine, opts explore.Options, n int, budget time.Duration, scope *obs.Scope) TheoremRun {
	opts.Obs = scope
	return measureTheorem1Engine(adversary.New(valency.New(opts)), protocol, n, budget)
}

func measureTheorem1Engine(engine *adversary.Engine, protocol model.Machine, n int, budget time.Duration) TheoremRun {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	w, err := engine.Theorem1(ctx, protocol, n)
	elapsed := time.Since(start)
	tr := TheoremRun{
		Protocol:   protocol.Name(),
		N:          n,
		ElapsedSec: elapsed.Seconds(),
	}
	stats := engine.Oracle().Stats()
	tr.OracleConfigs = stats.Configs
	if elapsed > 0 {
		tr.ConfigsPerSec = float64(stats.Configs) / elapsed.Seconds()
	}
	if err != nil {
		tr.Err = err.Error()
		return tr
	}
	tr.Completed = true
	tr.Registers = w.Registers
	return tr
}

// checkpointedN4 reruns the DiskRace n=4 Theorem 1 row with crash-safe
// snapshots attached and reports the row plus its checkpoint counters.
// plain is the unchecked row it is compared against for overhead.
func checkpointedN4(plain TheoremRun, scope *obs.Scope, dir string, every time.Duration, resume bool) (TheoremRun, *CheckpointStats, error) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "benchreport-ckpt-")
		if err != nil {
			return TheoremRun{}, nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	opts := diskOpts()
	opts.Obs = scope
	engine, coord, _, err := adversary.Open(opts, consensus.DiskRace{}.Name(), 4, dir, every, resume, scope)
	if err != nil {
		return TheoremRun{}, nil, fmt.Errorf("checkpoint dir %s: %w", dir, err)
	}
	tr := measureTheorem1Engine(engine, consensus.DiskRace{}, 4, 10*time.Minute)
	tr.Checkpointed = true
	// Persist the finished memo (outside the timed window) so a pinned
	// -checkpoint-dir can fast-forward the next -resume run.
	if err := coord.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport: final checkpoint:", err)
	}
	writes, bytes := coord.Stats()
	st := &CheckpointStats{Writes: writes, Bytes: bytes}
	if plain.Completed && tr.Completed && plain.ElapsedSec > 0 {
		st.OverheadFrac = (tr.ElapsedSec - plain.ElapsedSec) / plain.ElapsedSec
	}
	return tr, st, nil
}

func run() (int, error) {
	out := flag.String("out", "BENCH_explore.json", "output path for the JSON report")
	check := flag.Bool("check", false, "exit non-zero on perf-floor violations (speedup, allocs/config, n=4 completion)")
	baseline := flag.String("baseline", "", "previous BENCH_explore.json to compare against; exit non-zero if any shared reach row regresses >20% in configs/sec")
	debugAddr := flag.String("debug-addr", "", "listen address for /debug/pprof, /debug/vars and /progress (empty = off)")
	traceOut := flag.String("trace-out", "", "JSONL trace output path (empty = off, - = stderr)")
	recordEvery := flag.Duration("record-every", 250*time.Millisecond, "flight-recorder sampling interval for the report's timeseries (negative = off)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for the checkpointed n=4 row's snapshots (empty = temp dir, deleted on exit)")
	ckptEvery := flag.Duration("checkpoint-every", 5*time.Second, "minimum interval between snapshots in the checkpointed row")
	resume := flag.Bool("resume", false, "resume the checkpointed n=4 row from its newest snapshot in -checkpoint-dir")
	flag.Parse()
	if *resume && *ckptDir == "" {
		return 1, fmt.Errorf("-resume requires -checkpoint-dir")
	}

	// The scope observes every row, microbenchmarks included: the suite's
	// allocs/config and configs/sec numbers are measured with the flight
	// recorder fully enabled, so the -check gates hold for the instrumented
	// engine — the only configuration anyone runs in production. Its final
	// snapshot and time-series ring are embedded in the report whether or
	// not the live endpoints were requested.
	scope, stopObs, err := obs.Start(obs.Config{TraceOut: *traceOut, DebugAddr: *debugAddr, RecordEvery: *recordEvery})
	if err != nil {
		return 1, err
	}
	if scope == nil {
		scope = obs.NewScope(nil)
		stopObs = func() error { return nil }
	}
	if *recordEvery >= 0 && scope.Recorder() == nil {
		// No live endpoint requested, so obs.Start handed back a bare scope;
		// the report still wants the trajectory. Level-boundary ticks feed
		// the ring — no background goroutine needed for a batch run.
		scope.SetRecorder(obs.NewRecorder(scope.Registry(), *recordEvery, 2048))
	}
	defer func() {
		if err := stopObs(); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport: observability shutdown:", err)
		}
	}()

	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// Reference workloads: DiskRace n=3 and n=4, all processes, capped so
	// each run is a fixed amount of work (the full quotients are millions
	// of configurations; the cap keeps the suite in seconds).
	diskCfg := model.NewConfig(consensus.DiskRace{}, []model.Value{"0", "1", "1"})
	diskCfg4 := model.NewConfig(consensus.DiskRace{}, []model.Value{"0", "1", "1", "1"})
	const diskCap = 200_000

	packNs3, hashNs3, err := measurePackHash(diskCfg, []int{0, 1, 2}, diskOpts(), 20_000)
	if err != nil {
		return 1, err
	}
	var seqRate, parRate float64
	for _, workers := range []int{1, 0} {
		opts := diskOpts()
		opts.MaxConfigs = diskCap
		opts.Workers = workers
		opts.Obs = scope
		name := "diskrace_n3_seq"
		if workers == 0 {
			name = "diskrace_n3_par"
		}
		r, err := measureReach(name, diskCfg, []int{0, 1, 2}, opts)
		if err != nil {
			return 1, err
		}
		r.PackNsPerCfg, r.HashNsPerCfg = packNs3, hashNs3
		rep.Runs = append(rep.Runs, r)
		if workers == 1 {
			seqRate = r.ConfigsPerSec
		} else {
			parRate = r.ConfigsPerSec
		}
	}
	if seqRate > 0 {
		rep.SpeedupDiskRaceN3 = parRate / seqRate
	}

	{
		opts := diskOpts()
		opts.MaxConfigs = diskCap
		opts.Workers = 1
		opts.Obs = scope
		r, err := measureReach("diskrace_n4_seq", diskCfg4, []int{0, 1, 2, 3}, opts)
		if err != nil {
			return 1, err
		}
		packNs, hashNs, err := measurePackHash(diskCfg4, []int{0, 1, 2, 3}, diskOpts(), 20_000)
		if err != nil {
			return 1, err
		}
		r.PackNsPerCfg, r.HashNsPerCfg = packNs, hashNs
		rep.Runs = append(rep.Runs, r)
	}

	// Exhaustive small workload: Flood n=3 (finite space, no cap).
	floodCfg := model.NewConfig(consensus.Flood{}, []model.Value{"0", "1", "1"})
	for _, workers := range []int{1, 0} {
		name := "flood_n3_seq"
		if workers == 0 {
			name = "flood_n3_par"
		}
		r, err := measureReach(name, floodCfg, []int{0, 1, 2}, explore.Options{Workers: workers, Obs: scope})
		if err != nil {
			return 1, err
		}
		rep.Runs = append(rep.Runs, r)
	}

	// End-to-end Theorem 1 rows (experiment E15): n=3 as the historical
	// reference point, n=4 as the run this engine exists to make feasible.
	rep.Theorem1 = append(rep.Theorem1,
		measureTheorem1(consensus.DiskRace{}, diskOpts(), 3, 5*time.Minute, scope),
		measureTheorem1(consensus.DiskRace{}, diskOpts(), 4, 10*time.Minute, scope),
	)

	// Checkpointed repeat of the n=4 row: same construction, snapshots
	// every -checkpoint-every, counters and overhead embedded in the
	// report. Runs against a throwaway temp directory unless the operator
	// pins one with -checkpoint-dir.
	ckptRow, ckptStats, err := checkpointedN4(rep.Theorem1[len(rep.Theorem1)-1], scope,
		*ckptDir, *ckptEvery, *resume)
	if err != nil {
		return 1, err
	}
	rep.Theorem1 = append(rep.Theorem1, ckptRow)
	rep.Checkpoint = ckptStats
	rep.Metrics = scope.Registry().Snapshot()
	rep.Timeseries = scope.Recorder().Snapshot()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return 1, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return 1, err
	}
	fmt.Printf("wrote %s: diskrace n=3 %0.f configs/s sequential, %0.f configs/s parallel (speedup %.2fx, %d cpu)\n",
		*out, seqRate, parRate, rep.SpeedupDiskRaceN3, rep.NumCPU)
	for _, tr := range rep.Theorem1 {
		status := "completed"
		if !tr.Completed {
			status = "INCOMPLETE: " + tr.Err
		}
		name := tr.Protocol
		if tr.Checkpointed {
			name += " (checkpointed)"
		}
		fmt.Printf("theorem1 %s n=%d: %.2fs, %d oracle configs, %s\n",
			name, tr.N, tr.ElapsedSec, tr.OracleConfigs, status)
	}
	if rep.Checkpoint != nil {
		fmt.Printf("checkpointing: %d snapshots, %d bytes, %.1f%% overhead vs unchecked n=4\n",
			rep.Checkpoint.Writes, rep.Checkpoint.Bytes, 100*rep.Checkpoint.OverheadFrac)
	}

	if *check {
		if !rep.Theorem1[len(rep.Theorem1)-1].Completed {
			return 2, fmt.Errorf("theorem 1 n=4 did not complete within budget")
		}
		if rep.SpeedupDiskRaceN3 < 0.5 {
			return 2, fmt.Errorf("parallel engine is %.2fx sequential (< 0.5x floor) on diskrace n=3", rep.SpeedupDiskRaceN3)
		}
		for _, r := range rep.Runs {
			if r.Name == "diskrace_n3_seq" || r.Name == "diskrace_n4_seq" {
				if r.AllocsPerCfg > maxAllocsPerCfg {
					return 2, fmt.Errorf("%s allocates %.2f allocs/config (> %.0f ceiling)", r.Name, r.AllocsPerCfg, maxAllocsPerCfg)
				}
			}
		}
	}
	if *baseline != "" {
		if err := compareBaseline(rep, *baseline); err != nil {
			return 2, err
		}
	}
	return 0, nil
}

// maxAllocsPerCfg is the -check ceiling on steady-state allocations per
// visited configuration for the sequential DiskRace rows. The packed arena
// core runs well under 1; 4 leaves room for GC-cycle jitter without letting
// a per-configuration allocation sneak back into the hot loop.
const maxAllocsPerCfg = 4.0

// compareBaseline fails if any reach row shared with the baseline report
// lost more than 20% configs/sec. Rows present only on one side are ignored
// so the gate survives adding or renaming workloads.
func compareBaseline(rep Report, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	baseRate := make(map[string]float64, len(base.Runs))
	for _, r := range base.Runs {
		baseRate[r.Name] = r.ConfigsPerSec
	}
	const floor = 0.8
	var regressions []string
	for _, r := range rep.Runs {
		want, ok := baseRate[r.Name]
		if !ok || want <= 0 {
			continue
		}
		ratio := r.ConfigsPerSec / want
		fmt.Printf("baseline %s: %.0f -> %.0f configs/s (%.2fx)\n", r.Name, want, r.ConfigsPerSec, ratio)
		if ratio < floor {
			regressions = append(regressions, fmt.Sprintf("%s %.0f -> %.0f configs/s (%.2fx < %.2fx floor)",
				r.Name, want, r.ConfigsPerSec, ratio, floor))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("configs/sec regressed vs %s: %s", path, regressions[0])
	}
	return nil
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(code)
	}
}
