package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
)

// sampleSnapshot exercises every section and field of the schema.
func sampleSnapshot(seq uint64) *Snapshot {
	return &Snapshot{
		Meta: Meta{
			Protocol: "diskrace", N: 3, MaxConfigs: 1 << 21,
			Stage: "lemma 4: covering round 2", Seq: seq, WrittenUnixNano: 1700000000,
		},
		Memo: &MemoData{
			Verdicts: []VerdictRec{
				{FP: [2]uint64{1, 2}, Pids: 0b011, Values: []string{"0", "1"},
					Witness: [][]model.Move{{{Pid: 0, Coin: ""}}, {{Pid: 1, Coin: "H"}, {Pid: 0, Coin: ""}}}},
				{FP: [2]uint64{3, 4}, Pids: 0b111, Values: []string{"1"}, Witness: [][]model.Move{nil}},
			},
			Solo: []SoloRec{
				{FP: [2]uint64{5, 6}, Pid: 2, Val: "1", Path: []model.Move{{Pid: 2}}},
				{FP: [2]uint64{7, 8}, Pid: 0, Err: "solo run cycles"},
			},
		},
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The last record is longer than eagerRecordLen, so it is read into a
	// buffer that grows as its bytes arrive.
	records := [][]byte{[]byte("alpha"), {}, []byte("gamma"), bytes.Repeat([]byte("delta"), eagerRecordLen/2)}
	for _, rec := range records {
		if err := sw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if sw.Bytes() != int64(buf.Len()) {
		t.Fatalf("Bytes() = %d, buffer holds %d", sw.Bytes(), buf.Len())
	}
	got, err := ReadSegment(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("read %d records, wrote %d", len(got), len(records))
	}
	for i := range records {
		if !bytes.Equal(got[i], records[i]) {
			t.Fatalf("record %d differs (%d bytes, want %d)", i, len(got[i]), len(records[i]))
		}
	}
}

// TestReadSegmentCorruption drives every malformation class through
// ReadSegment: all must surface as ErrCorrupt, never a partial read and
// never a panic. Bit flips are exhaustive over the file because a segment
// has no byte whose silent corruption would be acceptable.
func TestReadSegmentCorruption(t *testing.T) {
	var buf bytes.Buffer
	sw, _ := NewWriter(&buf)
	boundaries := map[int]int{buf.Len(): 0} // byte offset -> records before it
	sw.Append([]byte("hello"))
	boundaries[buf.Len()] = 1
	sw.Append([]byte("world"))
	valid := buf.Bytes()

	expectCorrupt := func(t *testing.T, data []byte, what string) {
		t.Helper()
		recs, err := ReadSegment(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s: accepted (%d records)", what, len(recs))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v is not ErrCorrupt", what, err)
		}
	}

	expectCorrupt(t, nil, "zero-length file")
	expectCorrupt(t, []byte("NOTMAGIC"), "wrong magic")
	for cut := 1; cut < len(valid); cut++ {
		if want, ok := boundaries[cut]; ok {
			// A cut at a record boundary is a valid shorter segment —
			// exactly the guarantee: whole records or ErrCorrupt.
			recs, err := ReadSegment(bytes.NewReader(valid[:cut]))
			if err != nil || len(recs) != want {
				t.Fatalf("boundary cut %d: %d records, %v (want %d, nil)", cut, len(recs), err, want)
			}
			continue
		}
		expectCorrupt(t, valid[:cut], "truncation")
	}
	for i := range valid {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(valid)
			flipped[i] ^= 1 << bit
			expectCorrupt(t, flipped, "bit flip")
		}
	}
}

// hugeRecordSegment is 16 bytes: the magic, a length prefix declaring a
// 1 GiB record, and three payload bytes.
var hugeRecordSegment = append([]byte(segmentMagic), 0x80, 0x80, 0x80, 0x80, 0x04, 'a', 'b', 'c')

// TestReadSegmentHostileLengthAllocates: a record length prefix far beyond
// the bytes that follow it is corrupt, and reading it must not allocate
// the declared length first.
func TestReadSegmentHostileLengthAllocates(t *testing.T) {
	if len(hugeRecordSegment) != 16 {
		t.Fatalf("input is %d bytes, want 16", len(hugeRecordSegment))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSegment(bytes.NewReader(hugeRecordSegment))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadSegment = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a 16-byte segment allocated %d bytes", grew)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot(7)
	got, err := DecodeSnapshot(want.encodeRecords())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// A meta-only snapshot roundtrips too.
	metaOnly := &Snapshot{Meta: want.Meta}
	got, err = DecodeSnapshot(metaOnly.encodeRecords())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, metaOnly) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, metaOnly)
	}
}

// sampleSnapshotSHA256 is the sha256 of sampleSnapshot(7)'s segment bytes
// in the current snapshot format. Any schema or encoding change that
// alters a byte breaks resume of snapshots already on disk, so this pin
// must only move together with a deliberate format migration.
const sampleSnapshotSHA256 = "a1537b5c9d915fcdf6e5d6f735be669a4dfa4d9ae4538259350252f13bf379ae"

// inFlightSnapshot is sampleSnapshot(7) as the format that also saved an
// in-flight BFS query wrote it: the same meta and memo records, then a
// section tagged 3.
const inFlightSnapshot = "testdata/inflight-query.ckpt"

// TestSnapshotBytesPinned holds the on-disk snapshot format fixed: meta
// and memo sections encode to the pinned bytes.
func TestSnapshotBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleSnapshot(7).encodeRecords() {
		if err := sw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != sampleSnapshotSHA256 {
		t.Fatalf("snapshot segment sha256 = %s, want %s (%d bytes)", got, sampleSnapshotSHA256, buf.Len())
	}
}

// TestMetaCheck names every identifying field a stale snapshot gets wrong
// and ignores the per-save fields.
func TestMetaCheck(t *testing.T) {
	live := Meta{Protocol: "diskrace", N: 4, MaxConfigs: 0, FPVersion: 2}
	same := live
	same.Stage, same.Seq, same.WrittenUnixNano = "lemma 1", 9, 123
	if err := same.Check(live); err != nil {
		t.Fatalf("matching snapshot rejected: %v", err)
	}
	stale := Meta{Protocol: "flood", N: 3, MaxConfigs: 99, FPVersion: 1, Seq: 5}
	err := stale.Check(live)
	if !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("stale snapshot: err = %v, want ErrStaleSnapshot", err)
	}
	for _, field := range []string{`protocol "flood"`, "n=3", "max-configs=99", "fingerprint v1"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("stale snapshot error %q does not name %s", err, field)
		}
	}
}

func TestDecodeSnapshotRejects(t *testing.T) {
	meta := encodeMeta(&Meta{Protocol: "p"})
	cases := map[string][][]byte{
		"no records":     {},
		"empty record":   {meta, {}},
		"unknown tag":    {meta, {99, 1, 2}},
		"duplicate meta": {meta, meta},
		"no meta":        {{secMemo, 0, 0}},
		"trailing bytes": {append(bytes.Clone(meta), 0xFF)},
		// A meta truncated before FPVersion is the pre-hash-v2 format;
		// resuming it under the new fingerprint function must be refused
		// at decode time.
		"meta without fp version": {meta[:len(meta)-1]},
	}
	for name, records := range cases {
		if _, err := DecodeSnapshot(records); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", name, err)
		}
	}
}

// TestDecodeSnapshotRefusesInFlightQuery: a snapshot that still carries
// an in-flight query section is refused as ErrCorrupt naming the section,
// not resumed as if its query were not there.
func TestDecodeSnapshotRefusesInFlightQuery(t *testing.T) {
	records, err := ReadSegmentFile(inFlightSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeSnapshot(records)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "in-flight query section") {
		t.Fatalf("DecodeSnapshot = %v, want ErrCorrupt naming the in-flight query section", err)
	}
	// Its meta and memo records are the current format's bytes.
	if want := sampleSnapshot(7).encodeRecords(); !reflect.DeepEqual(records[:len(want)], want) {
		t.Fatal("meta and memo records differ from the current encoding")
	}
}

// TestStoreLatestSkipsInFlightQuery: Latest passes over a newer snapshot
// holding an in-flight query and resumes the older memo-only one.
func TestStoreLatestSkipsInFlightQuery(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(sampleSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(inFlightSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapFiles.Path(dir, 7), data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Seq != 1 {
		t.Fatalf("Latest resumed seq %d, want the memo-only seq 1", snap.Meta.Seq)
	}
}

func TestStoreSaveLatestPrune(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store Latest = %v, want ErrNoCheckpoint", err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if _, err := store.Save(sampleSnapshot(seq)); err != nil {
			t.Fatal(err)
		}
	}
	names := snapFiles.List(store.Dir())
	if len(names) != keepSnapshots {
		t.Fatalf("store retains %d files %v, want %d", len(names), names, keepSnapshots)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Seq != 4 {
		t.Fatalf("Latest seq = %d, want 4", snap.Meta.Seq)
	}
}

// TestStoreLatestFallsBack corrupts the newest snapshot and checks Latest
// silently falls back to its predecessor — the scenario keepSnapshots=2
// exists for.
func TestStoreLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.Save(sampleSnapshot(1))
	store.Save(sampleSnapshot(2))
	newest := snapFiles.Path(dir, 2)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatalf("Latest with corrupt newest: %v", err)
	}
	if snap.Meta.Seq != 1 {
		t.Fatalf("fell back to seq %d, want 1", snap.Meta.Seq)
	}
	// Everything corrupt: ErrNoCheckpoint naming the skipped files.
	if err := os.WriteFile(snapFiles.Path(dir, 1), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = store.Latest()
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-corrupt store Latest = %v, want ErrNoCheckpoint", err)
	}
	if !strings.Contains(err.Error(), "skipped corrupt") {
		t.Fatalf("error should name the skipped files: %v", err)
	}
}

// TestWriteFileAtomicCrash kills the write callback mid-stream with a
// faults.CrashWriter and checks the previous file survives untouched and no
// temp debris is left behind.
func TestWriteFileAtomicCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	old := []byte("previous generation")
	if _, err := WriteFileAtomic(path, func(w io.Writer) (int64, error) {
		n, err := w.Write(old)
		return int64(n), err
	}); err != nil {
		t.Fatal(err)
	}
	for limit := int64(0); limit < 40; limit++ {
		_, err := WriteFileAtomic(path, func(w io.Writer) (int64, error) {
			cw := &faults.CrashWriter{W: w, Limit: limit}
			_, err := cw.Write([]byte("the replacement that never lands"))
			return cw.Written(), err
		})
		if limit < 32 {
			if !errors.Is(err, faults.ErrWriteCrashed) {
				t.Fatalf("limit %d: want ErrWriteCrashed, got %v", limit, err)
			}
			got, readErr := os.ReadFile(path)
			if readErr != nil || !bytes.Equal(got, old) {
				t.Fatalf("limit %d: previous file damaged: %q, %v", limit, got, readErr)
			}
		} else if err != nil {
			t.Fatalf("limit %d covers the payload, write failed: %v", limit, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snap.ckpt" {
		t.Fatalf("temp debris left behind: %v", entries)
	}
}

// TestCoordinatorInterval pins the coordinator clock and checks the save
// cadence: the first opportunity saves, opportunities inside the interval
// are free, the first one past it saves again, Flush always saves.
func TestCoordinatorInterval(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(store, time.Minute, Meta{Protocol: "p", N: 3}, nil)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	c.Tick()
	if w, _ := c.Stats(); w != 1 {
		t.Fatalf("first tick: %d writes, want 1", w)
	}
	now = now.Add(30 * time.Second)
	c.Tick()
	c.Tick()
	if w, _ := c.Stats(); w != 1 {
		t.Fatalf("ticks inside interval saved: %d writes", w)
	}
	now = now.Add(31 * time.Second)
	c.SetStage("lemma 2")
	c.Tick()
	if w, _ := c.Stats(); w != 2 {
		t.Fatalf("tick past interval: %d writes, want 2", w)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if w, _ := c.Stats(); w != 3 {
		t.Fatalf("flush: %d writes, want 3", w)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Seq != 3 || snap.Meta.Stage != "lemma 2" {
		t.Fatalf("latest snapshot %+v, want seq 3 stage lemma 2", snap.Meta)
	}
}

// TestCoordinatorSurvivesSaveFailure points the store at a path that cannot
// host files: ticks must not panic or abort, Err must report, and saving
// must recover once the directory is back.
func TestCoordinatorSurvivesSaveFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(store, 0, Meta{Protocol: "p"}, nil)
	// Replace the directory with a plain file: CreateTemp now fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Tick()
	if c.Err() == nil {
		t.Fatal("save into a file-shadowed dir succeeded?")
	}
	if w, _ := c.Stats(); w != 0 {
		t.Fatalf("failed save counted as a write: %d", w)
	}
	// Seq must not burn on failures: the next successful save is seq 1.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Seq != 1 {
		t.Fatalf("first successful save has seq %d, want 1", snap.Meta.Seq)
	}
}

// TestScanSegmentTornTail appends a partial record to a valid segment and
// checks ScanSegment keeps the intact prefix and reports exactly where it
// ends — the contract the append-only ledger's reopen path truncates by.
func TestScanSegmentTornTail(t *testing.T) {
	var buf bytes.Buffer
	sw, _ := NewWriter(&buf)
	sw.Append([]byte("first"))
	sw.Append([]byte("second"))
	intact := int64(buf.Len())

	// A clean stream: both records, offset at EOF, no tail error.
	recs, off, err := ScanSegment(bytes.NewReader(buf.Bytes()))
	if err != nil || len(recs) != 2 || off != intact {
		t.Fatalf("clean scan: %d records, off %d, %v (want 2, %d, nil)", len(recs), off, err, intact)
	}

	// Every torn tail beyond the intact prefix: prefix records survive,
	// offset still marks the boundary, tail error is typed.
	sw.Append([]byte("torn"))
	full := buf.Bytes()
	for cut := intact + 1; cut < int64(len(full)); cut++ {
		recs, off, err := ScanSegment(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: tail error %v is not ErrCorrupt", cut, err)
		}
		if len(recs) != 2 || off != intact {
			t.Fatalf("cut %d: %d records, off %d (want 2, %d)", cut, len(recs), off, intact)
		}
	}

	// A bad header has no intact prefix.
	recs, off, err = ScanSegment(bytes.NewReader([]byte("NOTMAGIC")))
	if !errors.Is(err, ErrCorrupt) || len(recs) != 0 || off != 0 {
		t.Fatalf("bad header: %d records, off %d, %v", len(recs), off, err)
	}

	// NewAppendWriter continues the intact prefix into a valid stream.
	cont := bytes.NewBuffer(bytes.Clone(full[:intact]))
	aw := NewAppendWriter(cont)
	if err := aw.Append([]byte("third")); err != nil {
		t.Fatal(err)
	}
	recs, err2 := ReadSegment(bytes.NewReader(cont.Bytes()))
	if err2 != nil || len(recs) != 3 || string(recs[2]) != "third" {
		t.Fatalf("appended stream: %d records, %v", len(recs), err2)
	}
}

// TestCoordinatorSaveFailureObservable pins the satellite contract: a
// swallowed save failure must still be visible to operators as the
// checkpoint_errors counter, the checkpoint_consecutive_errors gauge and a
// checkpoint_error JSONL event — and the gauge must drop back to zero when
// persistence recovers.
func TestCoordinatorSaveFailureObservable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	scope := obs.NewScope(obs.NewTracer(&trace))
	c := NewCoordinator(store, 0, Meta{Protocol: "p", Stage: "lemma 1"}, scope)

	// Shadow the store directory with a file so every save fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Tick()
	c.Tick()
	if got := scope.Counter("checkpoint_errors").Value(); got != 2 {
		t.Fatalf("checkpoint_errors = %d, want 2", got)
	}
	if got := scope.Gauge("checkpoint_consecutive_errors").Value(); got != 2 {
		t.Fatalf("checkpoint_consecutive_errors = %d, want 2", got)
	}
	events := 0
	for _, line := range strings.Split(trace.String(), "\n") {
		if strings.Contains(line, `"msg":"checkpoint_error"`) {
			events++
			for _, field := range []string{`"stage":"lemma 1"`, `"consecutive":`, `"err":`} {
				if !strings.Contains(line, field) {
					t.Fatalf("checkpoint_error event lacks %s: %s", field, line)
				}
			}
		}
	}
	if events != 2 {
		t.Fatalf("trace carries %d checkpoint_error events, want 2", events)
	}

	// Recovery: a successful save resets the consecutive gauge, not the
	// monotonic counter.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := scope.Gauge("checkpoint_consecutive_errors").Value(); got != 0 {
		t.Fatalf("gauge after recovery = %d, want 0", got)
	}
	if got := scope.Counter("checkpoint_errors").Value(); got != 2 {
		t.Fatalf("counter after recovery = %d, want 2 (monotonic)", got)
	}
}

func TestArtifactWriteVerify(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "witness.txt")
	payload := []byte("flood n=3: 2 distinct registers witnessed\n")
	if err := WriteArtifact(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("artifact is not byte-for-byte the payload: %q, %v", got, err)
	}
	if err := VerifyArtifact(path); err != nil {
		t.Fatalf("fresh artifact rejected: %v", err)
	}
	// Tamper with the payload.
	if err := os.WriteFile(path, append(got, 'X'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyArtifact(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered artifact: %v, want ErrCorrupt", err)
	}
	// Restore payload, tamper with the sidecar.
	os.WriteFile(path, payload, 0o644)
	os.WriteFile(path+".sha256", []byte("feedface  witness.txt\n"), 0o644)
	if err := VerifyArtifact(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered sidecar: %v, want ErrCorrupt", err)
	}
	if err := VerifyArtifact(filepath.Join(dir, "absent.txt")); err == nil {
		t.Fatal("missing artifact verified")
	}
}
