package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/valency"
)

var update = flag.Bool("update", false, "rewrite testdata/witness_sha256.golden from the current output")

// goldenWitnessFile pins the sha256 of every witness the exploration
// engines produce: Theorem 1 constructions (DiskRace at one, two and four
// workers, Flood and CoinFlood at n=2), sequential distributed-run
// references at one and four workers, an in-process distributed run, and
// a witness served by an in-process provesrv job.
// It is the contract a refactor of the engines must keep byte for byte.
const goldenWitnessFile = "testdata/witness_sha256.golden"

// Dist specs of the corpus: n=4 at depth 18 is the benchmark's dist run,
// n=3 at depth 12 a small one. Unbounded DiskRace dist runs overflow the
// default configuration cap.
var goldenDistDepth = map[int]int{3: 12, 4: 18}

// TestWitnessGoldenCorpus renders each witness of the corpus and compares
// its sha256 with testdata/witness_sha256.golden. Regenerate the file with
// `go test ./cmd/spacebound -run WitnessGoldenCorpus -update` only when a
// witness is meant to change.
func TestWitnessGoldenCorpus(t *testing.T) {
	ctx := context.Background()
	got := map[string]string{}
	record := func(name string, witness []byte) {
		got[name] = fmt.Sprintf("%x", sha256.Sum256(witness))
	}

	// Theorem 1 runs: DiskRace at one, two and four workers, and the flood
	// protocols at n=2. CoinFlood is the corpus's only protocol with coin
	// moves.
	theorem1 := []struct {
		protocol string
		n        int
		workers  []int
	}{
		{core.ProtocolDiskRace, 3, []int{1, 2, 4}},
		{core.ProtocolDiskRace, 4, []int{1, 2, 4}},
		{core.ProtocolFlood, 2, []int{1}},
		{core.ProtocolCoinFlood, 2, []int{1}},
	}
	for _, tc := range theorem1 {
		m, opts, err := core.Machine(tc.protocol)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range tc.workers {
			o := opts
			o.Workers = workers
			w, err := adversary.New(valency.New(o)).Theorem1(ctx, m, tc.n)
			if err != nil {
				t.Fatalf("Theorem1 %s n=%d workers=%d: %v", tc.protocol, tc.n, workers, err)
			}
			record(fmt.Sprintf("theorem1_%s_n%d_w%d", tc.protocol, tc.n, workers), []byte(trace.RenderWitness(w)))
		}
	}

	for _, n := range []int{3, 4} {
		run, err := dist.NewRun(core.ProtocolDiskRace, n, 1, goldenDistDepth[n], time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			o := run.Opts
			o.Workers = workers
			witness, err := dist.SequentialWitness(ctx, run.Spec, run.Root, run.Procs, o)
			if err != nil {
				t.Fatalf("SequentialWitness n=%d workers=%d: %v", n, workers, err)
			}
			record(fmt.Sprintf("dist_sequential_diskrace_n%d_d%d_w%d", n, goldenDistDepth[n], workers), witness)
		}
	}

	record(fmt.Sprintf("dist_inprocess_diskrace_n3_d%d_2slices_2workers", goldenDistDepth[3]), inProcessDistWitness(t, 3, 2, goldenDistDepth[3]))

	served := servedWitness(t, core.ProtocolDiskRace, 3)
	record("provesrv_diskrace_n3", served)
	if got["provesrv_diskrace_n3"] != got["theorem1_diskrace_n3_w1"] {
		t.Errorf("provesrv witness differs from the local render:\n%s", served)
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var rendered strings.Builder
	for _, name := range names {
		fmt.Fprintf(&rendered, "%s %s\n", got[name], name)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenWitnessFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWitnessFile, []byte(rendered.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenWitnessFile)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/spacebound -run WitnessGoldenCorpus -update` to create it)", err)
	}
	if !bytes.Equal(want, []byte(rendered.String())) {
		t.Errorf("witness corpus drifted from %s.\n--- got ---\n%s--- want ---\n%s", goldenWitnessFile, rendered.String(), want)
	}
}

// inProcessDistWitness runs a coordinator behind an httptest server with
// the given number of slices and as many shard-worker goroutines, and
// returns the merged witness.
func inProcessDistWitness(t *testing.T, n, slices, depth int) []byte {
	t.Helper()
	run, err := dist.NewRun(core.ProtocolDiskRace, n, slices, depth, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := run.Coordinator(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, slices)
	for i := range errs {
		w := &dist.Worker{
			ID:    fmt.Sprintf("w%d", i),
			URL:   srv.URL,
			Root:  run.Root,
			Procs: run.Procs,
			Opts:  run.Opts,
			Seed:  int64(i + 1),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker w%d: %v", i, err)
		}
	}
	witness, err := coord.Witness()
	if err != nil {
		t.Fatal(err)
	}
	return witness
}

// servedWitness submits one job to an in-process provesrv, waits for it to
// be done and ledgered, and returns the witness GET /jobs/{id}/witness
// serves over an httptest server. The job's interval is 10 ms, so it
// snapshots at query boundaries during the job and the served witness
// also covers the snapshot path.
func servedWitness(t *testing.T, protocol string, n int) []byte {
	t.Helper()
	s, err := server.New(server.Options{
		DataDir:         t.TempDir(),
		Workers:         1,
		CheckpointEvery: 10 * time.Millisecond,
		Scope:           obs.NewScope(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	st, err := s.Submit(server.JobSpec{Protocol: protocol, N: n, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Minute); st.State != server.StateDone || st.Ledger == nil; time.Sleep(20 * time.Millisecond) {
		if st, err = s.Job(st.ID); err != nil {
			t.Fatal(err)
		}
		if st.State == server.StateFailed {
			t.Fatalf("job %s failed: %s: %s", st.ID, st.Reason, st.LastError)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 2m", st.ID, st.State)
		}
	}
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/witness")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET witness: status %d, err %v: %s", resp.StatusCode, err, body)
	}
	return body
}
