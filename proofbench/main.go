// Command proofbench is the end-to-end benchmark of the Theorem 1 proof
// system: the wall time a user waits for a proof, a capped n=5 attempt, a
// sharded run, or a provesrv job, split into per-layer tables by a separate
// traced pass. One run measures one workload:
//
//	bash proofbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	        [-report FILE] [-baseline FILE] [-trace-out FILE]
//
// run.sh builds this module from the checkout's source into .bench_build/
// and runs it from the checkout root; `go run .` inside proofbench/ works
// too. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a human summary of every
// metric by name and unit, the sample counts and the environment goes to
// standard error. The command exits 1 when any correctness check fails.
//
// # Workloads
//
// The names and their reasons are the contract BENCHMARK.json records.
//
//   - theorem1_n4: Theorem1(DiskRace, 4) with Workers 1, a fresh engine and
//     memo per rep — the cold cost every CLI run and server job pays. Many
//     small Lemma 1 batch probes with heavy memo use: valency, adversary
//     and per-query set-up, no parallel merge. The seed is unused; the
//     construction is deterministic.
//   - theorem1_n5_capped: Theorem1(DiskRace, 5) with Workers GOMAXPROCS
//     until the engine's default cap (2,097,152 configs a query) stops
//     Lemma 3 after 27 stages and 2,404,081 oracle configs, identical every
//     rep. One BFS far larger than the CPU cache: hash, fingerprint set,
//     arena and parallel merge, little memo work — the opposite of
//     theorem1_n4. A rep takes 7 to 9s on 2 cores, so a 25-second window
//     holds three or four.
//   - dist_n4_2shard: a journaled coordinator (OpenJournal + AttachJournal,
//     as provesrv -coordinator runs it) behind one httptest listener per
//     worker, and two dist.Worker goroutines over DiskRace n=4, 2 slices,
//     MaxDepth 18, lease 2s (the CLI default). A gate holds each worker's
//     first /dist/poll until both have connected and releases them in id
//     order, so every rep starts with one slice per worker; without it reps
//     are bimodal because the first worker can lease every slice. Worker
//     seeds are seed·10+i. Barrier, exchange and journal cost where
//     per-level compute is tiny.
//   - provesrv_mixed: server.New with provesrv's defaults (2 jobs, queue 8,
//     ledger batches of 16 or 500ms, checkpoints every 2s) on an empty
//     directory behind httptest. One client submits an open-loop stream of
//     POST /jobs at 3 jobs/s: a Poisson process conditioned on its count,
//     i.e. rate·window arrival times drawn uniformly from the window by the
//     seed. Specs cycle through seeded permutations of {diskrace, flood,
//     eagerflood, greedyflood} × n∈{3,4}, so every spec repeats and the mix
//     is exact. A second client polls GET /jobs/{id} of every job not yet
//     ledgered every 10ms; a job's latency runs from when it was due to
//     when its ledger reference is first seen. The only workload that
//     exercises checkpoints, the ledger, queueing, concurrent jobs and the
//     non-canonical key path of the flood protocols. coinflood is left
//     out: CoinFlood.Init panics at n≥3 and the server worker does not
//     recover, so one such job kills provesrv.
//
// provesrv_mixed's specs take 0.17s of one core on average (diskrace n=4
// 0.8s, the rest 0.01 to 0.18s), so 5 jobs/s would keep the two job slots
// about 40% busy on a quiet machine. When the shared machine slowed by a
// quarter, that queue neared saturation: over ten seeds, run alternately
// with 3 jobs/s, p75 at 5 jobs/s read 0.78 to 1.25s, quartiles 0.29 of the
// median apart, against 0.70 to 0.84s and 0.09 at 3 jobs/s.
//
// Every workload runs once untimed to warm up (theorem1_n5_capped warms on
// a 65,536-config cap, dist_n4_2shard on depth 2, provesrv_mixed on one
// job), then builds its fixture 41 times to time set-up (a coordinator or
// server each after a 25ms idle gap, engines back to back in batches),
// then loops operations until --seconds have passed.
//
// # Passes
//
// With --trace 0 the run is one untraced pass (Obs nil, GOMAXPROCS = nproc,
// one process, at most nproc workers) that yields the end-to-end metrics.
// With --trace 1 the window is split: an untraced half, then a traced half
// that yields the per-layer metrics. The traced pass measures from outside
// only: an obs.Scope whose JSONL tracer writes to an in-memory buffer (read
// for the spans and counters the engine already emits; -trace-out writes
// it out at the end), http.Handler wrappers around the coordinator and
// server handlers, a timing dist.JournalOptions.Opener, and timers around
// public calls (check.VerifyWitness, PackedCodec.PackTo,
// Fingerprinter.Fingerprint).
//
// # End-to-end metrics
//
// Every workload reports the same end-to-end metrics, so they are named
// for an operation, not for a workload: one proof, one capped run, one
// distributed run, or one job from due to ledgered. A failed, refused
// (429) or incorrect operation counts in "failed" against "attempted"; it
// is not a metric of its own, because it is 0 whenever the run is correct.
//
//   - latency_p50_s (s): median operation time, what a user waits — the
//     proof time on the theorem1 workloads, the wall time of a sharded run,
//     a job's time from due to ledgered.
//   - latency_p75_s (s): 75th percentile of operation time, the tail the
//     provesrv queue and ledger batching shape. p75 is the highest
//     percentile with at least ten samples beyond it on both theorem1_n4
//     (30 to 45 proofs a window) and provesrv_mixed (75 jobs); p90 would
//     have three or four on theorem1_n4 and seven on provesrv_mixed. The
//     summary names the highest such percentile of the run and the sample
//     count.
//   - alloc_mb (MB): heap bytes allocated per operation, the memory churn
//     the garbage collector pays for. The peak of the heap's object bytes,
//     live and not yet swept, sampled every 50ms from a GC at the start of
//     the pass, is printed and recorded as heap_peak_mb but not bounded:
//     it depends on where the collections fall against the live heap's
//     peak, and over ten seeds of theorem1_n5_capped it read 455 to 652 MB,
//     quartiles a quarter of the median apart.
//   - setup_s (s): median time to build the workload's fixture (an engine,
//     timed per build over batches of 50,000 because one takes under a
//     microsecond; or a coordinator with journal and listeners; or a
//     server with listener), so work moved into set-up shows.
//
// # Per-layer metrics
//
// Counts, sizes and summed times are per operation (per job on
// provesrv_mixed, per distributed run on dist_n4_2shard); percentiles are
// over the pass's individual events. A layer a workload does not exercise
// reads 0. The arrow names the end-to-end metric and workload each should
// move.
//
//   - model.pack_ns (ns): PackTo per config on a 20k-config sample of the
//     n=5 space → latency on theorem1_n5_capped and theorem1_n4.
//   - model.stepper_hit_ratio: stepper memo hits ÷ (hits + misses) → n5.
//   - explore.hash_ns (ns): Fingerprint per config on the same sample → as
//     model.pack_ns.
//   - explore.configs, explore.fresh_ratio (configs ÷ (configs + dedup
//     hits)): symmetry reduction moves these → every theorem1 latency.
//   - explore.fpset_probe_p99 (slots), explore.arena_merge_mb,
//     explore.arena_peak_mb → latency and alloc_mb on n5.
//   - valency.queries, valency.memo_hit_ratio, valency.configs → n4 and
//     provesrv latency (engine counters; 0 on provesrv, whose job scopes
//     are private).
//   - valency.decidable_s, valency.batch_s, valency.solo_s: summed span
//     time → batch on n4, decidable (the capped Lemma 3 query) on n5;
//     valency.query_us_p50 and _p99 over every valency span.
//   - adversary.{theorem1,lemma1,lemma2,lemma3,lemma4}_self_s: span self
//     time → Lemma 1 on n4, Lemma 3 on n5; adversary.lemma4_rounds.
//   - check.verify_ms: check.VerifyWitness per witness (on provesrv, of
//     the reference witnesses) → provesrv latency.
//   - checkpoint.writes, checkpoint.mb: job snapshots → provesrv tail. Job
//     scopes are private and the server has no storage hook, so snapshot
//     save time cannot be seen from outside; the bytes written stand in.
//   - dist.poll_idle_frac: gaps between consecutive polls of one worker
//     with nothing between, over worker-seconds — the tall layer today;
//     dist.polls; dist.poll_useful_ratio (polls the same worker follows
//     with a work request); dist.worker_busy_s (local expand and ingest,
//     seen as the gaps before non-poll requests; the packed shard kernel
//     moves this) → dist latency.
//   - dist.handler_ms.{poll,chunk_put,chunk_get,chunkset,checkpoint_put,
//     expanded,ingested} (mean per request), dist.chunk_mb,
//     dist.checkpoint_mb, dist.journal_syncs, dist.journal_sync_us_p99 →
//     dist latency.
//   - dist.seq_s: dist.SequentialWitness at the same depth, the
//     single-node baseline.
//   - server.submit_ms_p99, server.queue_wait_s_p50 (due until first seen
//     running), server.attempt_s_p50, ledger.commit_wait_s_p50 (done until
//     ledgered), ledger.flush_us_p99, ledger.batch_items_mean → provesrv
//     latency; server.refused (429s) → failed.
//   - obs.overhead_frac: traced over untraced median latency, minus 1.
//
// # Comparing runs
//
// -report FILE appends this run's full record (seed, num_cpu, gomaxprocs,
// Go version, every metric computed) as one JSON line; testdata/ holds the
// committed trajectory. -baseline FILE compares this run's end-to-end
// metrics with the median of the baseline's records for the same workload,
// --trace and --seconds, against the bounds in BENCHMARK.json, refuses
// baselines recorded on a different CPU count or holding no such records,
// and on a regression names the per-layer metric that grew most; it exits
// 2 on a regression.
//
// On a shared 2-vCPU Xeon virtual machine, two sets of ten 25-second runs
// (seeds 1 to 10) gave interquartile spreads, as a share of the median, of
// at most 0.014 for alloc_mb, 0.035 for dist_n4_2shard latency, 0.12 for
// theorem1_n4, 0.11 for theorem1_n5_capped and 0.22 for provesrv_mixed;
// the two sets' medians agreed within 0.14, setup_s within 0.17. The
// machine's speed is not steady: a fixed integer loop timed around each
// run varied by a fifth between runs and ran a third slower for spells of
// minutes, the proofs followed it about one and a half times over, and
// provesrv_mixed, whose jobs also wait on fsync, widens most in those
// spells. Other sets of ten, hours apart, put theorem1_n4's spread between
// 0.04 and 0.21. A difference within these spreads is noise; -baseline
// compares a single run, so confirm what it flags with more runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// metric is one reported metric: its name and unit.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"latency_p50_s", "s"},
	{"latency_p75_s", "s"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metric{
	{"model.pack_ns", "ns"},
	{"model.stepper_hit_ratio", "ratio"},
	{"explore.hash_ns", "ns"},
	{"explore.configs", "count"},
	{"explore.fresh_ratio", "ratio"},
	{"explore.fpset_probe_p99", "slots"},
	{"explore.arena_merge_mb", "MB"},
	{"explore.arena_peak_mb", "MB"},
	{"valency.queries", "count"},
	{"valency.memo_hit_ratio", "ratio"},
	{"valency.configs", "count"},
	{"valency.decidable_s", "s"},
	{"valency.batch_s", "s"},
	{"valency.solo_s", "s"},
	{"valency.query_us_p50", "us"},
	{"valency.query_us_p99", "us"},
	{"adversary.theorem1_self_s", "s"},
	{"adversary.lemma1_self_s", "s"},
	{"adversary.lemma2_self_s", "s"},
	{"adversary.lemma3_self_s", "s"},
	{"adversary.lemma4_self_s", "s"},
	{"adversary.lemma4_rounds", "count"},
	{"check.verify_ms", "ms"},
	{"checkpoint.writes", "count"},
	{"checkpoint.mb", "MB"},
	{"dist.polls", "count"},
	{"dist.poll_useful_ratio", "ratio"},
	{"dist.poll_idle_frac", "frac"},
	{"dist.worker_busy_s", "s"},
	{"dist.handler_ms.poll", "ms"},
	{"dist.handler_ms.chunk_put", "ms"},
	{"dist.handler_ms.chunk_get", "ms"},
	{"dist.handler_ms.chunkset", "ms"},
	{"dist.handler_ms.checkpoint_put", "ms"},
	{"dist.handler_ms.expanded", "ms"},
	{"dist.handler_ms.ingested", "ms"},
	{"dist.chunk_mb", "MB"},
	{"dist.checkpoint_mb", "MB"},
	{"dist.journal_syncs", "count"},
	{"dist.journal_sync_us_p99", "us"},
	{"dist.seq_s", "s"},
	{"server.submit_ms_p99", "ms"},
	{"server.queue_wait_s_p50", "s"},
	{"server.attempt_s_p50", "s"},
	{"server.refused", "count"},
	{"ledger.commit_wait_s_p50", "s"},
	{"ledger.flush_us_p99", "us"},
	{"ledger.batch_items_mean", "count"},
	{"obs.overhead_frac", "frac"},
}

// workload is one named benchmark input.
type workload struct {
	// prepare computes the references the correctness checks compare
	// against and runs the untimed warm-up.
	prepare func(*bench) error
	// run times set-up and then loops operations until the pass's
	// deadline.
	run func(*bench, *pass) error
	// checks names every correctness check a run performs; the smoke test
	// asserts each ran.
	checks []string
}

var workloads = map[string]workload{
	"theorem1_n4":        n4Workload,
	"theorem1_n5_capped": n5Workload,
	"dist_n4_2shard":     distWorkload,
	"provesrv_mixed":     provesrvWorkload,
}

// sizes are the workload dimensions: fullSizes for the benchmark,
// toySizes for the smoke test.
type sizes struct {
	n4, n5      int
	n5Cap       int // valency query cap of theorem1_n5_capped; 0 is the engine's default
	n5WarmCap   int // the cap of theorem1_n5_capped's warm-up run
	distN       int
	distDepth   int
	distLease   time.Duration
	jobRate     float64 // provesrv arrivals per second
	jobNs       []int
	sampleSize  int // configs in the pack/hash sample
	setupBuilds int // set-up samples per pass
}

var fullSizes = sizes{
	n4: 4, n5: 5, n5Cap: 0, n5WarmCap: 1 << 16, distN: 4, distDepth: 18, distLease: 2 * time.Second,
	jobRate: 3, jobNs: []int{3, 4}, sampleSize: 20_000, setupBuilds: 41,
}

var toySizes = sizes{
	n4: 3, n5: 5, n5Cap: 20_000, n5WarmCap: 5_000, distN: 3, distDepth: 4, distLease: 500 * time.Millisecond,
	jobRate: 1.5, jobNs: []int{3}, sampleSize: 2_000, setupBuilds: 2,
}

// bench is one benchmark process: one workload under one seed.
type bench struct {
	ctx  context.Context
	seed int64
	sz   sizes
	tmp  string // scratch for journals and server data, removed at exit

	checks map[string]int
	errs   []string

	// References the correctness checks compare against, set by prepare
	// or by the first operation.
	witnessSHA string   // theorem1_n4
	partial    string   // theorem1_n5_capped: stage count and configs
	seqWitness []byte   // dist_n4_2shard
	specSHA    []string // provesrv_mixed, indexed like jobSpecs
	refVerify  float64  // provesrv_mixed: summed reference verification seconds
}

// check records that the named correctness check ran, and a failure when
// ok is false.
func (b *bench) check(name string, ok bool, format string, args ...any) bool {
	b.checks[name]++
	if !ok {
		b.errs = append(b.errs, name+": "+fmt.Sprintf(format, args...))
	}
	return ok
}

// pass is one timed pass over a workload.
type pass struct {
	traced   bool
	scope    *obs.Scope
	trace    *syncBuffer
	deadline time.Time

	ops       []float64 // seconds per operation
	setup     []float64 // seconds per fixture build
	attempted int
	failed    int
	alloc     uint64 // bytes allocated during operations
	// layers holds per-layer values the workload measured itself, under
	// their metric names.
	layers map[string]float64
}

func (b *bench) newPass(traced bool, window time.Duration) *pass {
	p := &pass{traced: traced, layers: map[string]float64{}}
	if traced {
		p.trace = &syncBuffer{}
		p.scope = obs.NewScope(obs.NewTracer(p.trace))
	}
	p.deadline = time.Now().Add(window)
	return p
}

// more reports whether another operation should start: before the
// deadline, and always at least once.
func (p *pass) more() bool { return p.attempted == 0 || time.Now().Before(p.deadline) }

// op records one finished operation.
func (p *pass) op(seconds float64, ok bool) {
	p.attempted++
	if ok {
		p.ops = append(p.ops, seconds)
	} else {
		p.failed++
	}
}

// setupGap is the idle time before each set-up sample. Timed back to
// back, set-up samples all run at whichever of two speeds the CPU is in
// for that burst, and a run's median lands on one or the other; after an
// idle gap every sample starts from the same cold state, and the median
// repeats from run to run.
const setupGap = 25 * time.Millisecond

// timeSetup builds a fixture k times, each after setupGap, recording each
// build's time, and tears each down; the fixture of the final build is
// returned to the caller, who owns it. The fixtures fsync, so it first
// flushes what the warm-up and earlier runs left dirty: the kernel would
// otherwise write those pages back while some builds wait on their own
// fsyncs, and set-up would read up to three times as long.
func timeSetup[F any](p *pass, k int, build func() (F, error), teardown func(F)) (F, error) {
	syscall.Sync()
	var f F
	for i := 0; i < k; i++ {
		time.Sleep(setupGap)
		start := time.Now()
		var err error
		if f, err = build(); err != nil {
			return f, fmt.Errorf("set-up: %w", err)
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
		if i < k-1 {
			teardown(f)
		}
	}
	return f, nil
}

// sampleHeap records the peak of the heap's object bytes, live and not
// yet swept, every 50ms until stop is closed, then sends it on the
// returned channel.
func sampleHeap(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// allocated returns the bytes the process has allocated on the heap so
// far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// record is one run's full result: the -report line and the -baseline
// input.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Samples    int                `json:"samples"`
	Checks     map[string]int     `json:"checks"`
	Metrics    map[string]float64 `json:"metrics"`
}

// runWorkload runs one workload for window and returns its record. A
// traced run splits the window between the untraced and the traced pass.
func runWorkload(ctx context.Context, name string, seed int64, window time.Duration, traced bool, sz sizes, traceOut string) (*record, error) {
	wl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	tmp, err := os.MkdirTemp("", "proofbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{ctx: ctx, seed: seed, sz: sz, tmp: tmp, checks: map[string]int{}}
	if err := wl.prepare(b); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", name, err)
	}
	if traced {
		window /= 2
	}

	runtime.GC()
	stop := make(chan struct{})
	heap := sampleHeap(stop)
	untraced := b.newPass(false, window)
	err = wl.run(b, untraced)
	close(stop)
	peak := <-heap
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rec := &record{
		Workload: name, Seed: seed, Seconds: int(window.Seconds()), Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Attempted: untraced.attempted, Failed: untraced.failed, Samples: len(untraced.ops),
		Metrics: map[string]float64{
			"latency_p50_s": percentile(untraced.ops, 0.5),
			"latency_p75_s": percentile(untraced.ops, 0.75),
			"alloc_mb":      ratio(float64(untraced.alloc), float64(untraced.attempted)) / 1e6,
			"setup_s":       median(untraced.setup),
			"heap_peak_mb":  float64(peak) / 1e6,
		},
	}
	if traced {
		runtime.GC()
		tp := b.newPass(true, window)
		if err := wl.run(b, tp); err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		rec.Attempted += tp.attempted
		rec.Failed += tp.failed
		layers, err := b.layerMetrics(tp, untraced)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		for k, v := range layers {
			rec.Metrics[k] = v
		}
		if traceOut != "" {
			if err := os.WriteFile(traceOut, tp.trace.Bytes(), 0o644); err != nil {
				return nil, fmt.Errorf("trace-out: %w", err)
			}
		}
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "proofbench: correctness:", e)
	}
	rec.Correct = len(b.errs) == 0
	rec.Checks = b.checks
	return rec, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valuedUnit `json:"metrics"`
}

type valuedUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarizeRun prints every reported metric by name and unit, the sample
// counts and the environment to w, and returns the contract's result line.
func summarizeRun(rec *record, shown []metric, w io.Writer) result {
	fmt.Fprintf(w, "proofbench: %s seed=%d num_cpu=%d gomaxprocs=%d %s: %d operations attempted, %d failed, %d timed; heap peak %.1f MB\n",
		rec.Workload, rec.Seed, rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion, rec.Attempted, rec.Failed, rec.Samples, rec.Metrics["heap_peak_mb"])
	if pct, ok := tailPercentile(rec.Samples); ok {
		fmt.Fprintf(w, "proofbench: highest percentile with %d samples beyond it: p%d\n", minBeyond, pct)
	} else {
		fmt.Fprintf(w, "proofbench: fewer than %d samples beyond every percentile; the tail is indicative\n", minBeyond)
	}
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]valuedUnit{}}
	for _, m := range shown {
		v := rec.Metrics[m.name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = valuedUnit{Value: v, Unit: m.unit}
	}
	return res
}

func run() (int, error) {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = also run the traced pass and report per-layer metrics instead of end-to-end ones")
	reportPath := flag.String("report", "", "append this run's full record as one JSON line to this file")
	baselinePath := flag.String("baseline", "", "compare against the records of this -report file; exit 2 on a regression")
	traceOut := flag.String("trace-out", "", "write the traced pass's JSONL spans here at the end")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return 1, errors.New("need --seconds ≥ 1 and --trace 0 or 1")
	}
	// Nothing may outlive the benchmark's own 180-second limit.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rec, err := runWorkload(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, fullSizes, *traceOut)
	if err != nil {
		return 1, err
	}
	shown := endToEnd
	if rec.Trace {
		shown = perLayer
	}
	res := summarizeRun(rec, shown, os.Stderr)
	if *reportPath != "" {
		if err := appendRecord(*reportPath, rec); err != nil {
			return 1, err
		}
	}
	code := 0
	if *baselinePath != "" {
		regressed, err := compareBaseline(rec, *baselinePath, "BENCHMARK.json", os.Stderr)
		if err != nil {
			return 1, err
		}
		if regressed {
			code = 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1, errors.New("correctness checks failed")
	}
	return code, nil
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "proofbench:", err)
	}
	os.Exit(code)
}
