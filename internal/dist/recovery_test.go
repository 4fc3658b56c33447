package dist

import (
	"bytes"
	"context"
	"encoding/json"
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

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/model"
)

// corruptNewestSnapshot flips a byte in the middle of the newest snapshot
// file, simulating at-rest corruption of the primary recovery source.
func corruptNewestSnapshot(t *testing.T, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "state-*.ckpt"))
	if err != nil || len(names) < 2 {
		t.Fatalf("want >= 2 snapshots to corrupt one, have %v (%v)", names, err)
	}
	sort.Strings(names)
	path := names[len(names)-1]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// attachJournal opens the journal at dir and wires it to tr's coordinator,
// running the recovery sweep to completion.
func (tr *testRun) attachJournal(t *testing.T, dir string, opener FileOpener) *Journal {
	t.Helper()
	j, err := OpenJournal(dir, JournalOptions{Opener: opener})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.coord.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	if err := tr.coord.Recover(); err != nil {
		t.Fatal(err)
	}
	return j
}

// runWorkersUntilLevel runs workers until the coordinator's barrier
// reaches the level, then cancels them — the in-process stand-in for a
// coordinator crash mid-run (the journal stops receiving appends at an
// arbitrary point inside a level).
func (tr *testRun) runWorkersUntilLevel(t *testing.T, level int, workers ...*Worker) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	go func() {
		for {
			if tr.coord.Status().Level >= level {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx) // ctx.Err() is the expected way out
		}()
	}
	wg.Wait()
	if st := tr.coord.Status(); st.Level < level {
		t.Fatalf("run stopped at level %d before reaching %d", st.Level, level)
	}
}

// TestRecoverMidRunWitnessIdentical is the tentpole's in-process proof: a
// journaled run is abandoned mid-level, a brand-new coordinator recovers
// from the journal directory at the exact level, fresh workers finish the
// run, and the merged witness is byte-identical to the sequential
// reference.
func TestRecoverMidRunWitnessIdentical(t *testing.T) {
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 3, 6, 5000)
	tr1.attachJournal(t, dir, nil)
	tr1.runWorkersUntilLevel(t, 2, tr1.worker("pre-a", 1, nil), tr1.worker("pre-b", 2, nil))
	st1 := tr1.coord.Status()
	tr1.srv.Close()

	tr2 := newTestRun(t, 3, 3, 6, 5000)
	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Recovered() {
		t.Fatal("journal directory with a run in it recovered nothing")
	}
	if err := tr2.coord.AttachJournal(j2); err != nil {
		t.Fatal(err)
	}
	if !tr2.coord.Recovering() {
		t.Fatal("coordinator not in the recovery window after attaching recovered state")
	}
	if err := tr2.coord.Recover(); err != nil {
		t.Fatal(err)
	}
	st2 := tr2.coord.Status()
	if st2.Recovering {
		t.Fatal("still recovering after the sweep")
	}
	if st2.Level != st1.Level {
		t.Fatalf("recovered at level %d, crashed at %d", st2.Level, st1.Level)
	}
	if st2.Gen < 1 {
		t.Fatalf("recovery did not bump the generation: %+v", st2)
	}

	got := tr2.runWorkers(t, tr2.worker("post-a", 11, nil), tr2.worker("post-b", 12, nil))
	if want := tr2.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness after recovery differs:\n--- recovered\n%s--- sequential\n%s", got, want)
	}
}

// TestRecoverSurvivesSecondCrash: crash, recover, crash again mid-level,
// recover again — generations strictly increase and the final witness
// still matches. Exercises the snapshot chain across incarnations.
func TestRecoverSurvivesSecondCrash(t *testing.T) {
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 2, 6, 5000)
	tr1.attachJournal(t, dir, nil)
	tr1.runWorkersUntilLevel(t, 1, tr1.worker("a1", 1, nil))
	tr1.srv.Close()

	tr2 := newTestRun(t, 3, 2, 6, 5000)
	tr2.attachJournal(t, dir, nil)
	gen2 := tr2.coord.Status().Gen
	tr2.runWorkersUntilLevel(t, 2, tr2.worker("a2", 2, nil), tr2.worker("b2", 3, nil))
	tr2.srv.Close()

	tr3 := newTestRun(t, 3, 2, 6, 5000)
	tr3.attachJournal(t, dir, nil)
	if gen3 := tr3.coord.Status().Gen; gen3 <= gen2 {
		t.Fatalf("generation did not advance across crashes: %d then %d", gen2, gen3)
	}
	got := tr3.runWorkers(t, tr3.worker("a3", 4, nil))
	if want := tr3.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness after two recoveries differs:\n--- recovered\n%s--- sequential\n%s", got, want)
	}
}

// TestRecoverFinishedRun: restarting over the journal of a completed run
// comes back done immediately, with the identical witness re-rendered from
// the recovered stats.
func TestRecoverFinishedRun(t *testing.T) {
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 2, 5, 5000)
	tr1.attachJournal(t, dir, nil)
	want := tr1.runWorkers(t, tr1.worker("w", 5, nil))
	tr1.srv.Close()

	tr2 := newTestRun(t, 3, 2, 5, 5000)
	tr2.attachJournal(t, dir, nil)
	st := tr2.coord.Status()
	if !st.Done {
		t.Fatalf("recovered finished run not done: %+v", st)
	}
	select {
	case <-tr2.coord.Done():
	default:
		t.Fatal("done channel not closed after recovering a finished run")
	}
	got, err := tr2.coord.Witness()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("witness changed across restart:\n--- before\n%s--- after\n%s", want, got)
	}
}

// TestRecoveryWindowGatesAndStashes covers the recovery window's HTTP
// contract: worker endpoints answer 503 + Retry-After, liveness stays 200,
// readiness is 503, and chunk POSTs are stashed idempotently with the
// journaled copy winning over late reposts (the satellite-6 fix).
func TestRecoveryWindowGatesAndStashes(t *testing.T) {
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 2, 4, 5000)
	tr1.attachJournal(t, dir, nil)
	c1 := tr1.coord
	// w owns both slices at level 0. A second poll would not grant the
	// second slice inside the grant grace, so lease both directly.
	c1.mu.Lock()
	for s := range c1.slices {
		c1.assignLocked(s, "w")
	}
	c1.heartbeatLocked("w", time.Now())
	c1.mu.Unlock()
	entries := []Entry{{FP: explore.Fingerprint{7, 8}, Path: []uint32{1}}}
	journaled, err := EncodeFrontierChunk(0, 0, 1, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.putChunk("w", journaled); err != nil {
		t.Fatal(err)
	}
	tr1.srv.Close()

	// Restart into the recovery window: attach but do not recover yet.
	tr2 := newTestRun(t, 3, 2, 4, 5000)
	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.coord.AttachJournal(j2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tr2.coord.Handler())
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("/dist/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during recovery: %s", resp.Status)
	}
	if resp := get("/dist/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during recovery: %s", resp.Status)
	}
	pollResp, err := http.Post(srv.URL+"/dist/poll?worker=w", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	pollResp.Body.Close()
	if pollResp.StatusCode != http.StatusServiceUnavailable || pollResp.Header.Get("Retry-After") == "" {
		t.Fatalf("poll during recovery: %s, Retry-After %q", pollResp.Status, pollResp.Header.Get("Retry-After"))
	}

	// A delayed duplicate of the journaled chunk with different bytes (a
	// zombie's divergent repost) and a genuinely new chunk, both during
	// the window. Neither may 409; the first must lose to the journal.
	divergent, err := EncodeFrontierChunk(0, 0, 1, []Entry{{FP: explore.Fingerprint{9, 9}, Path: []uint32{2}}})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := EncodeFrontierChunk(0, 1, 0, []Entry{{FP: explore.Fingerprint{5, 6}, Path: []uint32{3}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{divergent, fresh, fresh} { // repeat: idempotent
		resp, err := http.Post(srv.URL+"/dist/chunk?worker=zombie", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("chunk POST during recovery window: %s", resp.Status)
		}
	}

	if err := tr2.coord.Recover(); err != nil {
		t.Fatal(err)
	}
	if resp := get("/dist/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: %s", resp.Status)
	}
	got, err := tr2.coord.getChunk(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, journaled) {
		t.Fatal("divergent repost during the recovery window overwrote the journaled chunk")
	}
	stashed, err := tr2.coord.getChunk(0, 1, 0)
	if err != nil {
		t.Fatalf("chunk stashed during the recovery window was not installed: %v", err)
	}
	if !bytes.Equal(stashed, fresh) {
		t.Fatal("stashed chunk bytes mangled")
	}
}

// TestRecoverEpochsFenceZombies: epochs granted after a restart sit above
// the new generation's base, so nothing a pre-crash grant issued can ever
// collide with them.
func TestRecoverEpochsFenceZombies(t *testing.T) {
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 1, 4, 5000)
	tr1.attachJournal(t, dir, nil)
	pre := tr1.coord.poll(context.Background(), "w")
	if len(pre.Slices) != 1 {
		t.Fatalf("no grant: %+v", pre)
	}
	tr1.srv.Close()

	tr2 := newTestRun(t, 3, 1, 4, 5000)
	tr2.attachJournal(t, dir, nil)
	post := tr2.coord.poll(context.Background(), "w")
	if len(post.Slices) != 1 {
		t.Fatalf("no grant after recovery: %+v", post)
	}
	gen := tr2.coord.Status().Gen
	if base := gen << epochGenShift; post.Slices[0].Epoch <= base || post.Slices[0].Epoch <= pre.Slices[0].Epoch {
		t.Fatalf("post-recovery epoch %d (gen %d, base %d) does not fence pre-crash epoch %d",
			post.Slices[0].Epoch, gen, base, pre.Slices[0].Epoch)
	}
}

// TestAttachJournalSpecMismatch: a journal directory from a different run
// is refused loudly — silently exploring the wrong space under a recovered
// level would corrupt the witness.
func TestAttachJournalSpecMismatch(t *testing.T) {
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 2, 4, 5000)
	tr1.attachJournal(t, dir, nil)
	tr1.srv.Close()

	tr2 := newTestRun(t, 3, 3, 4, 5000) // different slice count
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.coord.AttachJournal(j); err == nil {
		t.Fatal("journal for a different spec attached without error")
	}
}

// TestRecoverWithDegradedJournal: a journal on a "failing disk" (every WAL
// file hits ENOSPC almost immediately) degrades to memory-only without
// disturbing the barrier — the run completes and the witness matches. The
// snapshots are left healthy so rotation keeps re-arming the WAL; the test
// proves the degradation path is invisible to correctness either way.
func TestRecoverWithDegradedJournal(t *testing.T) {
	dir := t.TempDir()
	tr := newTestRun(t, 3, 2, 5, 5000)
	opener := func(path string, flag int) (faults.File, error) {
		if len(path) > 4 && path[len(path)-4:] == ".seg" {
			return (&faults.FSFault{Budget: 16}).Opener()(path, flag)
		}
		return faults.OpenOS(path, flag)
	}
	tr.attachJournal(t, dir, opener)
	got := tr.runWorkers(t, tr.worker("w", 9, nil))
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness with degraded journal differs:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
}

// TestRecoverFromSnapshotCorruption: corrupt the newest snapshot after a
// mid-run crash; the coordinator falls back to the previous snapshot plus
// both WALs and still finishes with the identical witness.
func TestRecoverFromSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 2, 6, 5000)
	tr1.attachJournal(t, dir, nil)
	tr1.runWorkersUntilLevel(t, 2, tr1.worker("a", 1, nil), tr1.worker("b", 2, nil))
	tr1.srv.Close()

	corruptNewestSnapshot(t, dir)

	tr2 := newTestRun(t, 3, 2, 6, 5000)
	tr2.attachJournal(t, dir, nil)
	got := tr2.runWorkers(t, tr2.worker("c", 3, nil))
	if want := tr2.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness after snapshot-corruption fallback differs:\n--- recovered\n%s--- sequential\n%s", got, want)
	}
}

// TestAttachJournalRefusesOtherFormat: a journal whose snapshot carries no
// format — the two-phase coordinator's, whose levels list at level L
// already holds depth L — is refused with both formats named, before the
// coordinator enters the recovery window: replaying it would count a depth
// twice.
func TestAttachJournalRefusesOtherFormat(t *testing.T) {
	dir := t.TempDir()
	tr := newTestRun(t, 3, 2, 4, 5000)
	meta, err := json.Marshal(journalMeta{Level: 1, Spec: tr.spec, RootFP: [2]uint64(tr.coord.rootFP), Levels: 1, Slices: 2})
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(meta, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "format")
	if meta, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	old := openTestJournal(t, dir, nil)
	if err := old.attachFresh([][]byte{
		(&journalRec{Tag: jrecMeta, Body: meta}).encode(),
		(&journalRec{Tag: jrecLevel, Fresh: 1, Digest: tr.coord.rootFP}).encode(),
	}); err != nil {
		t.Fatal(err)
	}
	old.closeWAL()

	j := openTestJournal(t, dir, nil)
	if !j.Recovered() {
		t.Fatal("journal with a snapshot in it recovered nothing")
	}
	err = tr.coord.AttachJournal(j)
	if err == nil {
		t.Fatal("journal without a format attached")
	}
	if msg := err.Error(); !strings.Contains(msg, "format 0") || !strings.Contains(msg, fmt.Sprintf("format %d", journalFormat)) {
		t.Fatalf("refusal %q does not name both formats", msg)
	}
	if st := tr.coord.Status(); st.Recovering || st.Level != 0 {
		t.Fatalf("refused journal still moved the coordinator: %+v", st)
	}
}

// TestMarkSurvivesRecovery: a slice marked before a coordinator crash
// keeps its mark through Recover — it was posted after the slice's
// checkpoint and chunks, so whoever owns the slice next can adopt it — and
// finishing the run posts no chunk for that slice and level again.
func TestMarkSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 2, 6, 5000)
	tr1.attachJournal(t, dir, nil)
	ctx := context.Background()
	// Mark level 0 of the root's slice, the one with children to ship.
	rootSlice := explore.ShardOf(tr1.coord.rootFP, 2)
	c1 := tr1.coord
	c1.mu.Lock()
	c1.assignLocked(rootSlice, "pre")
	c1.mu.Unlock()
	pre := tr1.worker("pre", 1, nil)
	cl := newClient(tr1.srv.URL, pre.ID, pre.Seed)
	resp, err := cl.poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Slices) != 1 || resp.Slices[0].Slice != rootSlice {
		t.Fatalf("pre leases %v, want only slice %d", ownedSlices(resp), rootSlice)
	}
	st, err := pre.adopt(ctx, cl, tr1.spec, c1.rootFP, resp.Slices[0])
	if err != nil {
		t.Fatal(err)
	}
	x := explore.NewExpander(model.NewPackedCodec(pre.Root), pre.Opts)
	var fired bool
	if err := pre.runLevel(ctx, cl, tr1.spec, x, rootSlice, st, 0, &fired); err != nil {
		t.Fatal(err)
	}
	if len(c1.chunkSources(0, 0))+len(c1.chunkSources(0, 1)) == 0 {
		t.Fatal("the marked slice shipped no chunk; the test would prove nothing")
	}
	tr1.srv.Close()

	tr2 := newTestRun(t, 3, 2, 6, 5000)
	tr2.attachJournal(t, dir, nil)
	c2 := tr2.coord
	c2.mu.Lock()
	kept, level := c2.slices[rootSlice].expanded, c2.level
	c2.mu.Unlock()
	if !kept || level != 0 {
		t.Fatalf("after Recover: level %d, slice %d marked %v; want level 0 with the mark kept", level, rootSlice, kept)
	}
	var mu sync.Mutex
	var reposted []string
	handler := c2.Handler()
	tr2.srv.Close()
	tr2.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/dist/chunk" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			if h, _, err := checkpoint.DecodeChunk(body); err == nil && h.Level == 0 && h.From == rootSlice {
				mu.Lock()
				reposted = append(reposted, fmt.Sprintf("%d->%d", h.From, h.To))
				mu.Unlock()
			}
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(tr2.srv.Close)
	got := tr2.runWorkers(t, tr2.worker("post-a", 11, nil), tr2.worker("post-b", 12, nil))
	if want := tr2.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness after recovery differs:\n--- recovered\n%s--- sequential\n%s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reposted) != 0 {
		t.Fatalf("level-0 chunks of the marked slice posted again after recovery: %v", reposted)
	}
}
