package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/obs"
)

// distFlags carries the distributed-exploration flag values from run()
// into the three dist modes.
type distFlags struct {
	coordinator  string // listen address; "" = not a coordinator
	shard        string // coordinator base URL; "" = not a shard
	sequential   bool   // run the single-process reference instead
	chaos        string // chaos schedule; "" = not the chaos driver
	shardID      string
	shardFault   string
	shardSeed    int64
	slices       int
	maxDepth     int
	lease        time.Duration
	linger       time.Duration
	corruptGets  int
	journalDir   string // coordinator journal directory; "" = memory-only
	journalFault string // fs fault injected into journal writes
}

// runCoordinator hosts the shard coordinator: /dist/* plus the obs surface
// (/metrics, /progress with shard health) on one listener. It exits once
// the run completes and -dist-linger has passed — the grace the shard
// workers and scrapers get to fetch the witness and final metrics — or on
// SIGTERM/SIGINT.
func runCoordinator(df distFlags, protocol string, n int, scope *obs.Scope, witnessOut string) error {
	if scope == nil {
		scope = obs.NewScope(nil)
	}
	run, err := dist.NewRun(protocol, n, df.slices, df.maxDepth, df.lease)
	if err != nil {
		return err
	}
	coord, err := run.Coordinator(scope)
	if err != nil {
		return err
	}
	scope.SetShardHealth(coord.ShardHealth)
	scope.SetReadyCheck(func() error {
		if coord.Recovering() {
			return errors.New("dist: coordinator recovering")
		}
		return nil
	})
	if df.journalDir != "" {
		fsFault, err := faults.ParseFSFault(df.journalFault)
		if err != nil {
			return err
		}
		if fsFault != nil {
			fmt.Fprintf(os.Stderr, "spacebound: journal writes faulted (%s)\n", df.journalFault)
		}
		j, err := dist.OpenJournal(df.journalDir, dist.JournalOptions{Opener: fsFault.Opener(), Scope: scope})
		if err != nil {
			return err
		}
		if err := coord.AttachJournal(j); err != nil {
			return err
		}
	}
	if df.corruptGets > 0 {
		inj := faults.NewOpInjector()
		inj.Fail("dist.chunk.get", df.corruptGets, nil)
		coord.SetFaults(inj)
		fmt.Fprintf(os.Stderr, "spacebound: serving the first %d chunk GETs corrupted\n", df.corruptGets)
	}
	mux := http.NewServeMux()
	mux.Handle("/dist/", coord.Handler())
	mux.Handle("/", obs.Handler(scope))
	ln, err := net.Listen("tcp", df.coordinator)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	// The bound address on its own stderr line so scripts (and the e2e
	// test) can find it when the flag uses port 0.
	fmt.Fprintf(os.Stderr, "spacebound: coordinator on http://%s (%s n=%d, %d slices, lease %v)\n",
		ln.Addr(), protocol, n, df.slices, df.lease)
	// The recovery sweep runs after the listener is up: workers that
	// survived the crash are already retrying, and the handler's recovery
	// gate answers them 503 + Retry-After until the sweep finishes.
	if coord.Recovering() {
		fmt.Fprintf(os.Stderr, "spacebound: journal %s holds a prior run, recovering\n", df.journalDir)
		if err := coord.Recover(); err != nil {
			return fmt.Errorf("journal recovery: %w", err)
		}
		st := coord.Status()
		fmt.Fprintf(os.Stderr, "spacebound: recovered to level %d, generation %d\n", st.Level, st.Gen)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case got := <-sig:
		return fmt.Errorf("%s before the run completed", got)
	case <-coord.Done():
	}
	witness, err := coord.Witness()
	if err != nil {
		return err
	}
	if witnessOut != "" {
		if err := checkpoint.WriteArtifact(witnessOut, witness); err != nil {
			return fmt.Errorf("witness artifact: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spacebound: witness written to %s (+.sha256)\n", witnessOut)
	} else {
		fmt.Print(string(witness))
	}
	fmt.Fprintf(os.Stderr, "spacebound: run complete, lingering %v for stragglers\n", df.linger)
	select {
	case <-time.After(df.linger):
	case <-sig:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(ctx)
}

// runShard attaches one shard worker to a coordinator and drives it until
// the run completes. A scripted -shard-fault kills or stalls the worker at
// its level — the crash the rest of the fleet must survive.
func runShard(ctx context.Context, df distFlags, scope *obs.Scope) error {
	fault, err := faults.ParseShardFault(df.shardFault)
	if err != nil {
		return err
	}
	id := df.shardID
	if id == "" {
		id = fmt.Sprintf("shard-%d", os.Getpid())
	}
	spec, err := dist.FetchSpec(ctx, df.shard)
	if err != nil {
		return err
	}
	run, err := dist.RunFromSpec(spec)
	if err != nil {
		return err
	}
	seed := df.shardSeed
	if seed == 0 {
		seed = int64(os.Getpid())
	}
	w := &dist.Worker{
		ID:    id,
		URL:   df.shard,
		Root:  run.Root,
		Procs: run.Procs,
		Opts:  run.Opts,
		Fault: fault,
		Scope: scope,
		Seed:  seed,
	}
	fmt.Fprintf(os.Stderr, "spacebound: shard %s joining %s (%s n=%d, %d slices)\n",
		id, df.shard, spec.Protocol, spec.N, spec.Slices)
	if err := w.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spacebound: shard %s done\n", id)
	return nil
}

// runDistSequential runs the single-process reference exploration for a
// distributed run with the same protocol/n/depth flags and writes its
// witness — the byte-exact oracle a distributed witness is compared to.
func runDistSequential(ctx context.Context, df distFlags, protocol string, n int, witnessOut string) error {
	run, err := dist.NewRun(protocol, n, 1, df.maxDepth, time.Second)
	if err != nil {
		return err
	}
	witness, err := dist.SequentialWitness(ctx, run.Spec, run.Root, run.Procs, run.Opts)
	if err != nil {
		return err
	}
	if witnessOut != "" {
		if err := checkpoint.WriteArtifact(witnessOut, witness); err != nil {
			return fmt.Errorf("witness artifact: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spacebound: witness written to %s (+.sha256)\n", witnessOut)
		return nil
	}
	fmt.Print(string(witness))
	return nil
}
