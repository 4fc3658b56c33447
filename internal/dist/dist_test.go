package dist

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/model"
)

// testRun wires a coordinator behind a real HTTP server plus the machine
// and options every worker shares.
type testRun struct {
	spec  Spec
	coord *Coordinator
	srv   *httptest.Server
	root  model.Config
	procs []int
	opts  explore.Options
}

func newTestRun(t *testing.T, n, slices, maxDepth int, leaseMS int64) *testRun {
	t.Helper()
	m, opts, err := core.Machine(core.ProtocolDiskRace)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]model.Value, n)
	inputs[0] = model.Value("0")
	for i := 1; i < n; i++ {
		inputs[i] = model.Value("1")
	}
	root := model.NewConfig(m, inputs)
	procs := make([]int, n)
	for i := range procs {
		procs[i] = i
	}
	spec := Spec{
		Protocol:  core.ProtocolDiskRace,
		N:         n,
		Slices:    slices,
		MaxDepth:  maxDepth,
		LeaseMS:   leaseMS,
		FPVersion: explore.FingerprintVersion,
	}
	coord, err := NewCoordinator(spec, opts.Fingerprint(root), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return &testRun{spec: spec, coord: coord, srv: srv, root: root, procs: procs, opts: opts}
}

func (tr *testRun) worker(id string, seed int64, fault *faults.ShardFault) *Worker {
	return &Worker{
		ID:    id,
		URL:   tr.srv.URL,
		Root:  tr.root,
		Procs: tr.procs,
		Opts:  tr.opts,
		Fault: fault,
		Seed:  seed,
	}
}

// runWorkers runs the workers concurrently until the coordinator finishes
// and returns the distributed witness.
func (tr *testRun) runWorkers(t *testing.T, workers ...*Worker) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %s: %v", workers[i].ID, err)
		}
	}
	select {
	case <-tr.coord.Done():
	default:
		t.Fatal("every worker returned but the run is not done")
	}
	witness, err := tr.coord.Witness()
	if err != nil {
		t.Fatal(err)
	}
	return witness
}

func (tr *testRun) sequential(t *testing.T) []byte {
	t.Helper()
	want, err := SequentialWitness(context.Background(), tr.spec, tr.root, tr.procs, tr.opts)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDistributedMatchesSequential: three workers over three slices
// produce a witness byte-identical to the single-process explore.Reach
// reference.
func TestDistributedMatchesSequential(t *testing.T) {
	tr := newTestRun(t, 3, 3, 6, 5000)
	got := tr.runWorkers(t,
		tr.worker("w0", 1, nil), tr.worker("w1", 2, nil), tr.worker("w2", 3, nil))
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("distributed witness differs from sequential:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
}

// TestSingleWorkerOwnsAllSlices: one worker accumulates every slice over
// successive polls and still matches the reference.
func TestSingleWorkerOwnsAllSlices(t *testing.T) {
	tr := newTestRun(t, 3, 4, 5, 5000)
	got := tr.runWorkers(t, tr.worker("solo", 7, nil))
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("distributed witness differs from sequential:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
	for _, h := range tr.coord.ShardHealth() {
		if h.Worker != "solo" {
			t.Fatalf("slice %d owned by %q at the end", h.Slice, h.Worker)
		}
	}
}

// TestStallRecovery: a worker stalls past its lease mid-run; the survivor
// takes over its slices, rebuilds them from checkpoint + retained chunks,
// and the merged witness is still byte-identical to the reference. The
// reassignment must be visible in shard health.
func TestStallRecovery(t *testing.T) {
	tr := newTestRun(t, 3, 3, 6, 200)
	stall := &faults.ShardFault{Kind: "stall", Level: 2, Stall: 1200 * time.Millisecond}
	// Lease sleepy a slice before either worker starts: otherwise steady
	// can win every grant before sleepy's first poll lands, the stall
	// never hits a slice owner, and the test proves nothing.
	tr.coord.poll(context.Background(), "sleepy")
	got := tr.runWorkers(t, tr.worker("steady", 11, nil), tr.worker("sleepy", 12, stall))
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness after stall recovery differs:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
	reassigns := 0
	for _, h := range tr.coord.ShardHealth() {
		reassigns += h.Reassigns
	}
	if reassigns == 0 {
		t.Fatal("stall past the lease caused no reassignment")
	}
}

// TestCorruptChunkRetry: the coordinator is scripted to serve corrupted
// bytes for the first chunk GETs. Workers must reject every corrupted copy
// (typed, never ingested) and re-request until a clean copy arrives; the
// witness still matches the reference.
func TestCorruptChunkRetry(t *testing.T) {
	tr := newTestRun(t, 3, 2, 5, 5000)
	inj := faults.NewOpInjector()
	inj.Fail("dist.chunk.get", 3, nil)
	tr.coord.SetFaults(inj)
	got := tr.runWorkers(t, tr.worker("w0", 21, nil), tr.worker("w1", 22, nil))
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness after corrupt chunks differs:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
	if inj.Hits("dist.chunk.get") < 3 {
		t.Fatalf("only %d chunk GETs hit the injector", inj.Hits("dist.chunk.get"))
	}
}

// TestOneMarkPerSlicePerLevel: a level is one barrier. A depth-12 run
// posts exactly one mark per slice for each of levels 0..12 — the last
// one only counts the depth-12 frontier — and never the retired second
// barrier's /dist/ingested.
func TestOneMarkPerSlicePerLevel(t *testing.T) {
	tr := newTestRun(t, 3, 2, 12, 5000)
	var mu sync.Mutex
	marks := map[string]int{}
	ingested := 0
	handler := tr.coord.Handler()
	tr.srv.Close()
	tr.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		switch r.URL.Path {
		case "/dist/expanded":
			marks[r.URL.Query().Get("slice")]++
		case "/dist/ingested":
			ingested++
		}
		mu.Unlock()
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(tr.srv.Close)
	got := tr.runWorkers(t, tr.worker("w0", 1, nil), tr.worker("w1", 2, nil))
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("distributed witness differs from sequential:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if ingested != 0 {
		t.Fatalf("%d /dist/ingested requests, want none", ingested)
	}
	if len(marks) != 2 || marks["0"] != 13 || marks["1"] != 13 {
		t.Fatalf("marks per slice %v, want 13 for each of slices 0 and 1", marks)
	}
}

// TestMarkAcrossRegrantCountedOnce: a mark from a worker whose slice was
// revoked and regranted back to it mid-level is still the level's work —
// it was posted after the slice's checkpoint and chunks — so it is applied
// once, survives the regrant, makes a repost a no-op, and its steps are
// counted once when the level closes.
func TestMarkAcrossRegrantCountedOnce(t *testing.T) {
	tr := newTestRun(t, 3, 2, 3, 5000)
	c := tr.coord
	c.mu.Lock()
	c.assignLocked(0, "w")
	c.assignLocked(1, "peer")
	c.revokeLocked(0, time.Now())
	c.assignLocked(0, "w") // regranted back: same owner, new epoch
	c.mu.Unlock()
	mine := levelMark{Steps: 5, Fresh: 1, Digest: tr.coord.rootFP}
	for range 2 { // the mark computed before the regrant, then a retry of it
		if err := c.expanded("w", 0, 0, mine); err != nil {
			t.Fatalf("mark across a regrant rejected: %v", err)
		}
	}
	c.mu.Lock()
	c.revokeLocked(0, time.Now())
	c.assignLocked(0, "w")
	marked := c.slices[0].expanded
	c.mu.Unlock()
	if !marked {
		t.Fatal("revocation dropped a mark whose work is all on the coordinator")
	}
	if err := c.expanded("peer", 1, 0, levelMark{Steps: 7}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.level != 1 || c.steps != 12 {
		t.Fatalf("after the close: level %d, %d steps; want level 1, 5+7 steps", c.level, c.steps)
	}
	if len(c.levels) != 1 || c.levels[0] != (LevelStat{Fresh: 1, Digest: c.rootFP}) {
		t.Fatalf("closed depths %+v, want only the root", c.levels)
	}
}

// TestCheckpointLevelMonotonic: a delayed duplicate checkpoint upload for
// an older level must not regress the stored recovery point — the newest
// checkpoint wins, and the stale post is acknowledged as a no-op.
func TestCheckpointLevelMonotonic(t *testing.T) {
	tr := newTestRun(t, 3, 1, 3, 5000)
	c := tr.coord
	c.poll(context.Background(), "w")
	enc := func(level int) []byte {
		ck := SliceCheckpoint{Slice: 0, Level: level, FPVersion: explore.FingerprintVersion}
		body, err := ck.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if err := c.putCheckpoint("w", 0, 1, enc(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.putCheckpoint("w", 0, 0, enc(0)); err != nil {
		t.Fatalf("delayed duplicate checkpoint rejected instead of ignored: %v", err)
	}
	body, level, err := c.getCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if level != 1 || !bytes.Equal(body, enc(1)) {
		t.Fatalf("stored checkpoint regressed to level %d", level)
	}
}

// TestPostFromNonOwnerRejected: a zombie worker whose lease was revoked
// gets 409 on its posts and ErrLeaseLost from the client.
func TestPostFromNonOwnerRejected(t *testing.T) {
	tr := newTestRun(t, 3, 1, 3, 50)
	ctx := context.Background()
	zombie := newClient(tr.srv.URL, "zombie", 1)
	if _, err := zombie.poll(ctx); err != nil {
		t.Fatal(err)
	}
	// Let the lease lapse, then have another worker steal the slice.
	time.Sleep(120 * time.Millisecond)
	thief := newClient(tr.srv.URL, "thief", 2)
	if _, err := thief.poll(ctx); err != nil {
		t.Fatal(err)
	}
	err := zombie.postExpanded(ctx, 0, 0, levelMark{Steps: 1})
	if err == nil {
		t.Fatal("zombie post accepted")
	}
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie post failed with %v, want ErrLeaseLost", err)
	}
}
