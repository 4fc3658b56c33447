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
// recovering from whatever the directory holds.
func (tr *testRun) attachJournal(t *testing.T, dir string, opener FileOpener) {
	t.Helper()
	j, err := OpenJournal(dir, JournalOptions{Opener: opener})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.coord.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
}

// runWorkersUntilLevel runs workers until the coordinator's barrier
// reaches the level, then cancels them — the in-process stand-in for a
// coordinator crash mid-run, at an arbitrary point inside a level.
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

// TestRecoverMidRunWitnessIdentical: a journaled run is abandoned
// mid-level, a brand-new coordinator recovers from the journal directory
// at the same level, fresh workers finish the run, and the merged witness
// is byte-identical to the sequential reference.
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
	st2 := tr2.coord.Status()
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

// TestRecoverEpochsFenceZombies: epochs granted after a restart sit above
// the new generation's base, so nothing a pre-crash grant issued can ever
// collide with them — also when the post-recovery snapshot that made the
// generation durable is corrupt and recovery falls back past it.
func TestRecoverEpochsFenceZombies(t *testing.T) {
	dir := t.TempDir()
	grant := func(tr *testRun) int {
		t.Helper()
		resp := tr.coord.poll(context.Background(), "w")
		if len(resp.Slices) != 1 {
			t.Fatalf("no grant: %+v", resp)
		}
		return resp.Slices[0].Epoch
	}
	tr1 := newTestRun(t, 3, 1, 4, 5000)
	tr1.attachJournal(t, dir, nil)
	epochs := []int{grant(tr1)}
	gens := []int{tr1.coord.Status().Gen}
	tr1.srv.Close()

	for i := 0; i < 2; i++ {
		if i == 1 {
			// The second incarnation granted under a generation only its
			// post-recovery snapshot holds; lose that snapshot.
			corruptNewestSnapshot(t, dir)
		}
		tr := newTestRun(t, 3, 1, 4, 5000)
		tr.attachJournal(t, dir, nil)
		epoch, gen := grant(tr), tr.coord.Status().Gen
		if base := gen << epochGenShift; epoch <= base || epoch <= epochs[len(epochs)-1] || gen <= gens[len(gens)-1] {
			t.Fatalf("incarnation %d: epoch %d (gen %d, base %d) does not fence earlier epochs %v (gens %v)",
				i+2, epoch, gen, base, epochs, gens)
		}
		epochs, gens = append(epochs, epoch), append(gens, gen)
		tr.srv.Close()
	}
}

// TestAttachJournalFailsWithoutDurableGeneration: when the post-recovery
// snapshot cannot be published, AttachJournal fails rather than let the
// coordinator grant under a generation no snapshot holds, and the journal
// directory keeps only what it held.
func TestAttachJournalFailsWithoutDurableGeneration(t *testing.T) {
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 2, 4, 5000)
	tr1.attachJournal(t, dir, nil)
	tr1.srv.Close()
	before, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}

	tr2 := newTestRun(t, 3, 2, 4, 5000)
	j, err := OpenJournal(dir, JournalOptions{Opener: (&faults.FSFault{FailSync: true}).Opener()})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.coord.AttachJournal(j); err == nil {
		t.Fatal("recovery whose snapshot could not be published attached without error")
	}
	after, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("failed recovery changed the journal directory: %v -> %v", before, after)
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

// TestRecoverWithDegradedJournal: a journal on a "failing disk" (every
// level-close snapshot hits ENOSPC) does not disturb the barrier — the run
// completes and the witness matches. A restart then recovers from the
// last snapshot that landed, the empty run's, and redoes every level to
// the same witness.
func TestRecoverWithDegradedJournal(t *testing.T) {
	dir := t.TempDir()
	tr := newTestRun(t, 3, 2, 5, 5000)
	seeded := false
	opener := func(path string, flag int) (faults.File, error) {
		if seeded {
			return (&faults.FSFault{Budget: 16}).Opener()(path, flag)
		}
		seeded = true
		return faults.OpenOS(path, flag)
	}
	tr.attachJournal(t, dir, opener)
	want := tr.sequential(t)
	if got := tr.runWorkers(t, tr.worker("w", 9, nil)); !bytes.Equal(got, want) {
		t.Fatalf("witness with degraded journal differs:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
	tr.srv.Close()

	tr2 := newTestRun(t, 3, 2, 5, 5000)
	tr2.attachJournal(t, dir, nil)
	if st := tr2.coord.Status(); st.Level != 0 || st.Done {
		t.Fatalf("recovered %+v, want level 0 from the only snapshot that landed", st)
	}
	if got := tr2.runWorkers(t, tr2.worker("w2", 10, nil)); !bytes.Equal(got, want) {
		t.Fatalf("witness after redoing every level differs:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
}

// TestRecoverFromSnapshotCorruption: after a mid-run crash and a recovery,
// corrupt the recovery's own snapshot; the next coordinator falls back to
// the level-close snapshot before it, at the crash level, under a
// generation strictly above the one the lost snapshot held, and still
// finishes with the identical witness.
func TestRecoverFromSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 2, 6, 5000)
	tr1.attachJournal(t, dir, nil)
	tr1.runWorkersUntilLevel(t, 2, tr1.worker("a", 1, nil), tr1.worker("b", 2, nil))
	st1 := tr1.coord.Status()
	tr1.srv.Close()

	tr2 := newTestRun(t, 3, 2, 6, 5000)
	tr2.attachJournal(t, dir, nil)
	st2 := tr2.coord.Status()
	tr2.srv.Close()
	corruptNewestSnapshot(t, dir)

	tr3 := newTestRun(t, 3, 2, 6, 5000)
	tr3.attachJournal(t, dir, nil)
	st3 := tr3.coord.Status()
	if st3.Level != st1.Level || st3.Gen <= st2.Gen {
		t.Fatalf("fallback recovered %+v; want level %d and a generation above %d", st3, st1.Level, st2.Gen)
	}
	got := tr3.runWorkers(t, tr3.worker("c", 3, nil))
	if want := tr3.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness after snapshot-corruption fallback differs:\n--- recovered\n%s--- sequential\n%s", got, want)
	}
}

// TestAttachJournalRefusesOtherFormat: a journal whose snapshot carries no
// format — the two-phase coordinator's, whose levels list at level L
// already holds depth L — is refused with both formats named, before the
// coordinator changes: recovering from it would count a depth twice.
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
	if err := old.snapshot([][]byte{
		(&journalRec{Tag: jrecMeta, Body: meta}).encode(),
		(&journalRec{Tag: jrecLevel, Fresh: 1, Digest: tr.coord.rootFP}).encode(),
	}); err != nil {
		t.Fatal(err)
	}

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
	if st := tr.coord.Status(); st.Gen != 0 || st.Level != 0 {
		t.Fatalf("refused journal still moved the coordinator: %+v", st)
	}
}

// markedSlices counts the slices holding a barrier mark for the current
// level.
func markedSlices(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for s := range c.slices {
		if c.slices[s].expanded {
			n++
		}
	}
	return n
}

// TestMidLevelCrashRedoesLevel: the coordinator dies after one of two
// slices marked level L. The marks and the chunks posted since the level
// opened are lost; the recovered coordinator sits at level L with no
// marks, the redone level reposts byte-identical chunks, and the witness
// still equals the sequential one.
func TestMidLevelCrashRedoesLevel(t *testing.T) {
	const crashLevel = 2
	dir := t.TempDir()
	tr1 := newTestRun(t, 3, 2, 6, 5000)
	tr1.attachJournal(t, dir, nil)
	c1 := tr1.coord
	ctx := context.Background()
	// One worker drives both slices level by level, then marks only the
	// root's slice at the crash level.
	c1.mu.Lock()
	for s := range c1.slices {
		c1.assignLocked(s, "pre")
	}
	c1.mu.Unlock()
	pre := tr1.worker("pre", 1, nil)
	cl := newClient(tr1.srv.URL, pre.ID, pre.Seed)
	resp, err := cl.poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	x := explore.NewExpander(model.NewCanonCodec(pre.Root, pre.Opts.Canon), pre.Opts)
	states := map[int]*sliceState{}
	for _, ps := range resp.Slices {
		if states[ps.Slice], err = pre.adopt(ctx, cl, tr1.spec, c1.rootFP, ps); err != nil {
			t.Fatal(err)
		}
	}
	var fired bool
	marked := explore.ShardOf(c1.rootFP, 2)
	for level := 0; level <= crashLevel; level++ {
		for s := range c1.slices {
			if level == crashLevel && s != marked {
				continue
			}
			if err := pre.runLevel(ctx, cl, tr1.spec, x, s, states[s], level, &fired); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := c1.Status(); st.Level != crashLevel || markedSlices(c1) != 1 {
		t.Fatalf("before the crash: %+v with %d marks, want level %d with 1", st, markedSlices(c1), crashLevel)
	}
	posted := map[string][]byte{}
	c1.mu.Lock()
	for key, body := range c1.chunks {
		if key.level == crashLevel {
			posted[fmt.Sprintf("%d->%d", key.from, key.to)] = body
		}
	}
	c1.mu.Unlock()
	if len(posted) == 0 {
		t.Fatal("the marked slice shipped no chunk; the test would prove nothing")
	}
	tr1.srv.Close()

	tr2 := newTestRun(t, 3, 2, 6, 5000)
	tr2.attachJournal(t, dir, nil)
	c2 := tr2.coord
	if st := c2.Status(); st.Level != crashLevel || markedSlices(c2) != 0 {
		t.Fatalf("after recovery: %+v with %d marks, want level %d with none", st, markedSlices(c2), crashLevel)
	}
	var mu sync.Mutex
	reposted := map[string][]byte{}
	handler := c2.Handler()
	tr2.srv.Close()
	tr2.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/dist/chunk" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			if h, _, err := checkpoint.DecodeChunk(body); err == nil && h.Level == crashLevel {
				mu.Lock()
				reposted[fmt.Sprintf("%d->%d", h.From, h.To)] = body
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
	for key, body := range posted {
		if again, ok := reposted[key]; !ok || !bytes.Equal(again, body) {
			t.Fatalf("level %d chunk %s: redo reposted %d bytes (present %v), want the %d bytes posted before the crash",
				crashLevel, key, len(again), ok, len(body))
		}
	}
}

// TestRecoverParentJournal: a journal directory written when the
// coordinator still kept a write-ahead log next to its snapshots — crashed
// after one of two slices marked level 2, so wal-00000002.seg holds that
// slice's checkpoint, chunks and mark — still recovers. The snapshot
// alone counts: the coordinator comes up at level 2 with no marks, and the
// workers finish with the sequential witness. The WAL files are ignored
// and left in place.
func TestRecoverParentJournal(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-journal")
	names, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var wals []string
	for _, e := range names {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(e.Name(), "wal-") {
			wals = append(wals, e.Name())
		}
	}
	if len(wals) == 0 {
		t.Fatal("the parent journal holds no WAL; the test would prove nothing")
	}

	tr := newTestRun(t, 3, 2, 6, 5000)
	tr.attachJournal(t, dir, nil)
	if st := tr.coord.Status(); st.Level != 2 || st.Gen != 1 || markedSlices(tr.coord) != 0 {
		t.Fatalf("recovered %+v with %d marks, want level 2, generation 1, no marks", st, markedSlices(tr.coord))
	}
	got := tr.runWorkers(t, tr.worker("a", 1, nil), tr.worker("b", 2, nil))
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness from the parent journal differs:\n--- recovered\n%s--- sequential\n%s", got, want)
	}
	for _, name := range wals {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("WAL file %s not left in place: %v", name, err)
		}
	}
}
