package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/obs"
)

// sampleJournalRecords returns one well-formed encoded payload per record
// tag — the corpus the decoder robustness tests mutate.
func sampleJournalRecords() map[string][]byte {
	return map[string][]byte{
		"meta":  (&journalRec{Tag: jrecMeta, Body: []byte(`{"seq":1}`)}).encode(),
		"level": (&journalRec{Tag: jrecLevel, Fresh: 12, Digest: explore.Fingerprint{1, 2}}).encode(),
		"slice": (&journalRec{Tag: jrecSlice, Slice: 3, Flags: sflagHasCkpt | sflagExpanded,
			CkptLevel: 6, Steps: 100, Fresh: 7, Digest: explore.Fingerprint{3, 4}, Reassigns: 2, Body: []byte("ckpt")}).encode(),
		"retained": (&journalRec{Tag: jrecRetained, Level: 2, From: 0, To: 1, Body: []byte("retained")}).encode(),
	}
}

// walRecords are write-ahead-log records as journals once wrote them to
// wal-<seq>.seg: a slice checkpoint, an exchange chunk, two barrier marks
// and a generation bump. No journal reads them any more, so each must
// decode as an unknown tag.
var walRecords = map[string][]byte{
	"ckpt":     []byte("\x01\x02\x05ckpt-bytes"),
	"chunk":    []byte("\x02\x03\x01\x02chunk-bytes"),
	"expanded": []byte("\x03\x01\x04\x89\x06\x1f\xad\xbd\x03\xef\xfd\x02"),
	"empty":    []byte("\x03\x00\x02\x00\x00\x00\x00"),
	"gen":      []byte("\x05\t"),
}

// TestJournalRecordRoundTrip: every record tag encodes and decodes back to
// the same fields.
func TestJournalRecordRoundTrip(t *testing.T) {
	recs := []journalRec{
		{Tag: jrecMeta, Body: []byte(`{"seq":1}`)},
		{Tag: jrecLevel, Fresh: 12, Digest: explore.Fingerprint{1, 2}},
		{Tag: jrecSlice, Slice: 3, Flags: sflagHasCkpt | sflagEverOwned, CkptLevel: 6, Steps: 100,
			Fresh: 7, Digest: explore.Fingerprint{3, 4}, Reassigns: 2, Body: []byte("ckpt")},
		{Tag: jrecRetained, Level: 2, From: 0, To: 1, Body: []byte("retained")},
	}
	for _, want := range recs {
		got, err := decodeJournalRecord(want.encode())
		if err != nil {
			t.Fatalf("tag %d: %v", want.Tag, err)
		}
		if !sameJournalRec(got, want) {
			t.Fatalf("tag %d round trip:\nwant %+v\ngot  %+v", want.Tag, want, got)
		}
	}
}

// sameJournalRec compares two records field by field.
func sameJournalRec(a, b journalRec) bool {
	return a.Tag == b.Tag && a.Slice == b.Slice && a.Level == b.Level &&
		a.From == b.From && a.To == b.To && a.Steps == b.Steps &&
		a.Fresh == b.Fresh && a.Digest == b.Digest && a.Flags == b.Flags &&
		a.CkptLevel == b.CkptLevel && a.Reassigns == b.Reassigns && bytes.Equal(a.Body, b.Body)
}

// TestJournalRefusesWALRecords: the retired write-ahead-log record kinds
// fail as unknown tags, typed.
func TestJournalRefusesWALRecords(t *testing.T) {
	for name, raw := range walRecords {
		_, err := decodeJournalRecord(raw)
		if !IsJournalCorrupt(err) || !strings.Contains(err.Error(), "unknown tag") {
			t.Fatalf("%s: %v, want an unknown-tag corrupt error", name, err)
		}
	}
}

// TestJournalRecordSingleBitFlips: every single-bit corruption of every
// record type either fails with the typed corrupt error or decodes to
// *something* without panicking — never a crash, never an untyped error.
// This is the exhaustive version of the fuzz target's promise.
func TestJournalRecordSingleBitFlips(t *testing.T) {
	for name, good := range sampleJournalRecords() {
		for i := range good {
			for bit := 0; bit < 8; bit++ {
				mut := bytes.Clone(good)
				mut[i] ^= 1 << bit
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: bit %d of byte %d: decode panicked: %v", name, bit, i, r)
						}
					}()
					if _, err := decodeJournalRecord(mut); err != nil && !IsJournalCorrupt(err) {
						t.Fatalf("%s: bit %d of byte %d: untyped error %v", name, bit, i, err)
					}
				}()
			}
		}
	}
}

// TestJournalRecordTruncations: every prefix of every record type decodes
// without panicking; a truncated fixed-size record is a typed error.
func TestJournalRecordTruncations(t *testing.T) {
	for name, good := range sampleJournalRecords() {
		for n := 0; n < len(good); n++ {
			if _, err := decodeJournalRecord(good[:n]); err != nil && !IsJournalCorrupt(err) {
				t.Fatalf("%s truncated to %d bytes: untyped error %v", name, n, err)
			}
		}
	}
	if _, err := decodeJournalRecord(nil); !IsJournalCorrupt(err) {
		t.Fatalf("empty record: %v", err)
	}
	if _, err := decodeJournalRecord([]byte{0xfe}); !IsJournalCorrupt(err) {
		t.Fatalf("unknown tag: %v", err)
	}
}

// FuzzDecodeJournalRecord: arbitrary bytes never panic the decoder, every
// failure is the typed corrupt error, and no retired write-ahead-log tag
// decodes.
func FuzzDecodeJournalRecord(f *testing.F) {
	for _, good := range sampleJournalRecords() {
		f.Add(good)
	}
	for _, wal := range walRecords {
		f.Add(wal)
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeJournalRecord(data)
		if err != nil {
			if !IsJournalCorrupt(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		switch rec.Tag {
		case 1, 2, 3, 5:
			t.Fatalf("retired write-ahead-log tag %d decoded: %+v", rec.Tag, rec)
		}
		// A successful decode must round-trip at the value level (the byte
		// level is not canonical: uvarints tolerate redundant encodings).
		again, err := decodeJournalRecord(rec.encode())
		if err != nil {
			t.Fatalf("re-encoding a decoded record does not decode: %v", err)
		}
		if !sameJournalRec(again, rec) {
			t.Fatalf("value round trip changed the record:\nfirst  %+v\nsecond %+v", rec, again)
		}
	})
}

// journalScope-free open helper for tests.
func openTestJournal(t *testing.T, dir string, opener FileOpener) *Journal {
	t.Helper()
	j, err := OpenJournal(dir, JournalOptions{Opener: opener})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// metaRecords is a minimal snapshot: one meta record for snapshot seq.
func metaRecords(t *testing.T, seq uint64) [][]byte {
	t.Helper()
	return [][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, seq, 1)}).encode()}
}

// TestJournalCorruptSnapshotFallsBack: flipping a byte in the newest
// snapshot sends recovery to the previous snapshot, which is
// self-contained, and marks the state as having skipped a newer one; the
// next snapshot does not overwrite the corrupt file.
func TestJournalCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, nil)
	for seq := uint64(0); seq <= 1; seq++ {
		if err := j.snapshot(metaRecords(t, seq)); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupt the newest snapshot.
	path := snapFiles.Path(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, dir, nil)
	if !j2.Recovered() {
		t.Fatal("fallback did not recover")
	}
	if st := j2.recovered; st.meta.Seq != 0 || !st.skipped {
		t.Fatalf("recovered from snapshot %d (skipped %v), want the fallback 0 past a skipped one", st.meta.Seq, st.skipped)
	}
	if j2.seq != 2 {
		t.Fatalf("next snapshot gets seq %d, want 2 past the corrupt one", j2.seq)
	}
}

// TestJournalSnapshotGC: after the fourth snapshot only the last two
// remain on disk.
func TestJournalSnapshotGC(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, nil)
	for seq := uint64(0); seq <= 3; seq++ {
		if err := j.snapshot(metaRecords(t, seq)); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "state-*.ckpt"))
	if len(snaps) != 2 {
		t.Fatalf("keep-2 GC left %d snapshots: %v", len(snaps), snaps)
	}
	for _, seq := range []uint64{2, 3} {
		if _, err := os.Stat(snapFiles.Path(dir, seq)); err != nil {
			t.Fatalf("snapshot %d missing: %v", seq, err)
		}
	}
}

// TestJournalAppendDegradesOnDiskFault: an ENOSPC mid-snapshot fails that
// snapshot (typed, no panic) and keeps the previous one as the recovery
// point; once the volume frees up, the next snapshot takes the failed
// one's sequence number.
func TestJournalAppendDegradesOnDiskFault(t *testing.T) {
	dir := t.TempDir()
	faulted := false
	opener := func(path string, flag int) (faults.File, error) {
		if faulted {
			// Budget enough for the magic + one small record, not more.
			return (&faults.FSFault{Budget: 64}).Opener()(path, flag)
		}
		return faults.OpenOS(path, flag)
	}
	j := openTestJournal(t, dir, opener)
	if err := j.snapshot(metaRecords(t, 0)); err != nil {
		t.Fatal(err)
	}
	faulted = true
	big := (&journalRec{Tag: jrecSlice, Body: make([]byte, 256)}).encode()
	if err := j.snapshot(append(metaRecords(t, 1), big)); !errors.Is(err, faults.ErrDiskFull) {
		t.Fatalf("snapshot past the byte budget: %v, want disk full", err)
	}
	if got := openTestJournal(t, dir, nil).recovered.meta.Seq; got != 0 {
		t.Fatalf("after a failed snapshot recovery loads snapshot %d, want 0", got)
	}
	faulted = false
	if err := j.snapshot(metaRecords(t, 1)); err != nil {
		t.Fatal(err)
	}
	if got := openTestJournal(t, dir, nil).recovered.meta.Seq; got != 1 {
		t.Fatalf("after the volume freed up recovery loads snapshot %d, want 1", got)
	}
}

// TestJournalFaultEventsNameCause: the journal's fault events say what
// failed and why, so a trace alone explains a failed snapshot or a corrupt
// one skipped at open.
func TestJournalFaultEventsNameCause(t *testing.T) {
	var buf bytes.Buffer
	scope := obs.NewScope(obs.NewTracer(&buf))
	dir := t.TempDir()
	faulted := false
	opener := func(path string, flag int) (faults.File, error) {
		if faulted {
			return (&faults.FSFault{Budget: 64}).Opener()(path, flag)
		}
		return faults.OpenOS(path, flag)
	}
	j, err := OpenJournal(dir, JournalOptions{Opener: opener, Scope: scope})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq <= 1; seq++ {
		if err := j.snapshot(metaRecords(t, seq)); err != nil {
			t.Fatal(err)
		}
	}
	faulted = true
	big := (&journalRec{Tag: jrecSlice, Body: make([]byte, 256)}).encode()
	if err := j.snapshot(append(metaRecords(t, 2), big)); err == nil {
		t.Fatal("snapshot past the byte budget succeeded")
	}

	// A corrupt newest snapshot, skipped by the next open.
	path := snapFiles.Path(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, JournalOptions{Scope: scope}); err != nil {
		t.Fatal(err)
	}

	events := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line is not JSON: %v\n%s", err, line)
		}
		events[rec["msg"].(string)] = rec
	}
	diskFull := faults.ErrDiskFull.Error()
	if ev := events["dist_journal_snapshot_failed"]; ev["what"] != filepath.Base(snapFiles.Path(dir, 2)) || !strings.Contains(fmt.Sprint(ev["cause"]), diskFull) {
		t.Fatalf("dist_journal_snapshot_failed event %v, want the snapshot file and a disk-full cause", ev)
	}
	if ev := events["dist_journal_snapshot_corrupt"]; !strings.Contains(fmt.Sprint(ev["cause"]), "corrupt") {
		t.Fatalf("dist_journal_snapshot_corrupt event %v, want a corruption cause", ev)
	}
}

// TestJournalSnapshotFailureKeepsWAL: a failing snapshot write publishes
// nothing and leaves no temp file behind, so the previous snapshot stays
// the recovery point, with everything it held.
func TestJournalSnapshotFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	failSnapshots := false
	opener := func(path string, flag int) (faults.File, error) {
		if failSnapshots && filepath.Ext(path) == ".tmp" {
			return (&faults.FSFault{Budget: 4}).Opener()(path, flag)
		}
		return faults.OpenOS(path, flag)
	}
	j := openTestJournal(t, dir, opener)
	level := (&journalRec{Tag: jrecLevel, Fresh: 3, Digest: explore.Fingerprint{5, 6}}).encode()
	meta := journalMeta{Slices: 1, Levels: 1}
	body, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.snapshot([][]byte{(&journalRec{Tag: jrecMeta, Body: body}).encode(), level}); err != nil {
		t.Fatal(err)
	}
	failSnapshots = true
	if err := j.snapshot(metaRecords(t, 1)); err == nil {
		t.Fatal("snapshot with a full disk succeeded")
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != filepath.Base(snapFiles.Path(dir, 0)) {
		t.Fatalf("failed snapshot left %v, want only snapshot 0", names)
	}
	st := openTestJournal(t, dir, nil).recovered
	if st.meta.Seq != 0 || len(st.levels) != 1 || st.levels[0] != (LevelStat{Fresh: 3, Digest: explore.Fingerprint{5, 6}}) {
		t.Fatalf("recovered snapshot %d with levels %+v, want snapshot 0 with its one level", st.meta.Seq, st.levels)
	}
}

// TestJournalSyncFailDegradesSnapshot: a failing fsync fails the snapshot:
// a maybe-unsynced file is never published.
func TestJournalSyncFailDegradesSnapshot(t *testing.T) {
	dir := t.TempDir()
	failSync := false
	opener := func(path string, flag int) (faults.File, error) {
		if failSync && filepath.Ext(path) == ".tmp" {
			return (&faults.FSFault{FailSync: true}).Opener()(path, flag)
		}
		return faults.OpenOS(path, flag)
	}
	j := openTestJournal(t, dir, opener)
	if err := j.snapshot(metaRecords(t, 0)); err != nil {
		t.Fatal(err)
	}
	failSync = true
	if err := j.snapshot(metaRecords(t, 1)); err == nil {
		t.Fatal("snapshot with failing fsync succeeded")
	}
	if _, err := os.Stat(snapFiles.Path(dir, 1)); err == nil {
		t.Fatal("unsynced snapshot was published")
	}
}

// metaJSON builds a minimal valid snapshot meta body for journal-layer
// tests (the coordinator-level tests use real state).
func metaJSON(t *testing.T, seq uint64, slices int) []byte {
	t.Helper()
	m := journalMeta{Seq: seq, Slices: slices, Spec: Spec{Slices: slices, LeaseMS: 1000, N: 2}}
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
