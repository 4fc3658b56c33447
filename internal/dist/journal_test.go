package dist

import (
	"bytes"
	"encoding/json"
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
		"ckpt":     (&journalRec{Tag: jrecCkpt, Slice: 2, Level: 5, Body: []byte("ckpt-bytes")}).encode(),
		"chunk":    (&journalRec{Tag: jrecChunk, Level: 3, From: 1, To: 2, Body: []byte("chunk-bytes")}).encode(),
		"expanded": (&journalRec{Tag: jrecExpanded, Slice: 1, Level: 4, Steps: 777, Fresh: 31, Digest: explore.Fingerprint{0xdead, 0xbeef}}).encode(),
		"empty":    (&journalRec{Tag: jrecExpanded, Slice: 0, Level: 2}).encode(),
		"gen":      (&journalRec{Tag: jrecGen, Gen: 9}).encode(),
		"meta":     (&journalRec{Tag: jrecMeta, Body: []byte(`{"seq":1}`)}).encode(),
		"level":    (&journalRec{Tag: jrecLevel, Fresh: 12, Digest: explore.Fingerprint{1, 2}}).encode(),
		"slice": (&journalRec{Tag: jrecSlice, Slice: 3, Flags: sflagHasCkpt | sflagExpanded,
			CkptLevel: 6, Steps: 100, Fresh: 7, Digest: explore.Fingerprint{3, 4}, Reassigns: 2, Body: []byte("ckpt")}).encode(),
		"retained": (&journalRec{Tag: jrecRetained, Level: 2, From: 0, To: 1, Body: []byte("retained")}).encode(),
	}
}

// TestJournalRecordRoundTrip: every record tag encodes and decodes back to
// the same fields.
func TestJournalRecordRoundTrip(t *testing.T) {
	recs := []journalRec{
		{Tag: jrecCkpt, Slice: 2, Level: 5, Body: []byte("ckpt-bytes")},
		{Tag: jrecChunk, Level: 3, From: 1, To: 2, Body: []byte("chunk-bytes")},
		{Tag: jrecExpanded, Slice: 1, Level: 4, Steps: 777, Fresh: 31, Digest: explore.Fingerprint{0xdead, 0xbeef}},
		{Tag: jrecExpanded, Slice: 0, Level: 2},
		{Tag: jrecGen, Gen: 9},
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
		if got.Tag != want.Tag || got.Slice != want.Slice || got.Level != want.Level ||
			got.From != want.From || got.To != want.To || got.Steps != want.Steps ||
			got.Fresh != want.Fresh || got.Digest != want.Digest || got.Gen != want.Gen ||
			got.Flags != want.Flags || got.CkptLevel != want.CkptLevel || got.Reassigns != want.Reassigns ||
			!bytes.Equal(got.Body, want.Body) {
			t.Fatalf("tag %d round trip:\nwant %+v\ngot  %+v", want.Tag, want, got)
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

// FuzzDecodeJournalRecord: arbitrary bytes never panic the decoder, and
// every failure is the typed corrupt error.
func FuzzDecodeJournalRecord(f *testing.F) {
	for _, good := range sampleJournalRecords() {
		f.Add(good)
	}
	f.Add([]byte{})
	f.Add([]byte{jrecExpanded, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeJournalRecord(data)
		if err != nil {
			if !IsJournalCorrupt(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successful decode must round-trip at the value level (the byte
		// level is not canonical: uvarints tolerate redundant encodings).
		again, err := decodeJournalRecord(rec.encode())
		if err != nil {
			t.Fatalf("re-encoding a decoded record does not decode: %v", err)
		}
		if again.Tag != rec.Tag || again.Slice != rec.Slice || again.Level != rec.Level ||
			again.From != rec.From || again.To != rec.To || again.Steps != rec.Steps ||
			again.Fresh != rec.Fresh || again.Digest != rec.Digest || again.Gen != rec.Gen ||
			again.Flags != rec.Flags || again.CkptLevel != rec.CkptLevel ||
			again.Reassigns != rec.Reassigns || !bytes.Equal(again.Body, rec.Body) {
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

// TestJournalTornTailTruncated: garbage appended to the active WAL — a
// crash mid-append — is detected and truncated on the next open; the
// intact prefix survives.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, nil)
	if err := j.attachFresh([][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 0, 1)}).encode()}); err != nil {
		t.Fatal(err)
	}
	j.append(journalRec{Tag: jrecGen, Gen: 1})
	j.append(journalRec{Tag: jrecGen, Gen: 2})
	if j.Degraded() {
		t.Fatal("healthy appends degraded the journal")
	}
	j.wal.Close()
	// Tear the tail: half an append.
	f, err := os.OpenFile(walPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x22, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(walPath(dir, 0))

	j2 := openTestJournal(t, dir, nil)
	if !j2.Recovered() {
		t.Fatal("journal with state did not recover")
	}
	recs := j2.recovered.walRecs
	if len(recs) != 2 || recs[0].Gen != 1 || recs[1].Gen != 2 {
		t.Fatalf("recovered WAL records: %+v", recs)
	}
	after, err := os.Stat(walPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestJournalUndecodableRecordTruncated: a record whose checksum holds but
// whose content is garbage (an unknown tag) ends the intact prefix — the
// WAL is truncated just before it, not at the checksum layer's longer
// valid offset.
func TestJournalUndecodableRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, nil)
	if err := j.attachFresh([][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 0, 1)}).encode()}); err != nil {
		t.Fatal(err)
	}
	j.append(journalRec{Tag: jrecGen, Gen: 1})
	// A checksum-valid record with an unknown tag: append through the
	// WAL log directly.
	if _, err := j.wal.Append([]byte{0xfe, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	j.append(journalRec{Tag: jrecGen, Gen: 2}) // after the garbage; must be dropped too
	j.wal.Close()

	j2 := openTestJournal(t, dir, nil)
	recs := j2.recovered.walRecs
	if len(recs) != 1 || recs[0].Gen != 1 {
		t.Fatalf("recovered WAL records: %+v", recs)
	}
	// The truncation must leave a WAL the next open reads cleanly.
	j3 := openTestJournal(t, dir, nil)
	if got := j3.recovered.walRecs; len(got) != 1 || got[0].Gen != 1 {
		t.Fatalf("re-opened WAL records: %+v", got)
	}
}

// TestJournalCorruptSnapshotFallsBack: flipping a byte in the newest
// snapshot sends recovery to the previous snapshot plus both WALs — the
// gapless chain.
func TestJournalCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, nil)
	meta0 := [][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 0, 1)}).encode()}
	if err := j.attachFresh(meta0); err != nil {
		t.Fatal(err)
	}
	j.append(journalRec{Tag: jrecGen, Gen: 1})
	meta1 := [][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 1, 1)}).encode()}
	if err := j.snapshot(meta1); err != nil {
		t.Fatal(err)
	}
	j.append(journalRec{Tag: jrecGen, Gen: 2})
	j.wal.Close()

	// Corrupt the newest snapshot.
	path := snapPath(dir, 1)
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
	if j2.recovered.meta.Seq != 0 {
		t.Fatalf("recovered from snapshot %d, want the fallback 0", j2.recovered.meta.Seq)
	}
	// Both WALs replay: gen 1 (wal-0) then gen 2 (wal-1).
	recs := j2.recovered.walRecs
	if len(recs) != 2 || recs[0].Gen != 1 || recs[1].Gen != 2 {
		t.Fatalf("fallback WAL chain: %+v", recs)
	}
}

// TestJournalSnapshotGC: after the third snapshot only the last two
// snapshot/WAL pairs remain on disk.
func TestJournalSnapshotGC(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir, nil)
	if err := j.attachFresh([][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 0, 1)}).encode()}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.snapshot([][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, seq, 1)}).encode()}); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "state-*.ckpt"))
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(snaps) != 2 || len(wals) != 2 {
		t.Fatalf("keep-2 GC left %d snapshots, %d WALs", len(snaps), len(wals))
	}
	if _, err := os.Stat(snapPath(dir, 3)); err != nil {
		t.Fatalf("newest snapshot missing: %v", err)
	}
	if _, err := os.Stat(snapPath(dir, 2)); err != nil {
		t.Fatalf("previous snapshot missing: %v", err)
	}
}

// TestJournalAppendDegradesOnDiskFault: an ENOSPC mid-append flips the
// journal to memory-only (degraded, typed, no panic) instead of surfacing
// an error to the barrier; a later successful snapshot restores
// durability.
func TestJournalAppendDegradesOnDiskFault(t *testing.T) {
	dir := t.TempDir()
	// Budget enough for the magic + one record, not two.
	budget := &faults.FSFault{Budget: 64}
	calls := 0
	opener := func(path string, flag int) (faults.File, error) {
		calls++
		if calls == 1 {
			// Let the seed snapshot through untouched; fault only the WAL.
			return faults.OpenOS(path, flag)
		}
		return budget.Opener()(path, flag)
	}
	j := openTestJournal(t, dir, opener)
	if err := j.attachFresh([][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 0, 1)}).encode()}); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 256)
	j.append(journalRec{Tag: jrecCkpt, Slice: 0, Level: 1, Body: big})
	if !j.Degraded() {
		t.Fatal("append past the byte budget did not degrade the journal")
	}
	j.append(journalRec{Tag: jrecGen, Gen: 1}) // must be a silent no-op
	// A successful snapshot rotation clears the degradation. Use a healthy
	// opener from here on (the "volume" freed up).
	j.open = faults.OpenOS
	if err := j.snapshot([][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 1, 1)}).encode()}); err != nil {
		t.Fatal(err)
	}
	if j.Degraded() {
		t.Fatal("successful snapshot did not restore durability")
	}
	j.append(journalRec{Tag: jrecGen, Gen: 2})
	if j.Degraded() {
		t.Fatal("post-recovery append degraded again")
	}
}

// TestJournalFaultEventsNameCause: the journal's fault events say what
// failed and why — the same what/cause/truncated_from/truncated_to
// attributes ledger_torn_tail carries — so a trace alone explains a
// degraded or truncated journal.
func TestJournalFaultEventsNameCause(t *testing.T) {
	var buf bytes.Buffer
	scope := obs.NewScope(obs.NewTracer(&buf))
	dir := t.TempDir()
	seeded := false
	opener := func(path string, flag int) (faults.File, error) {
		if !seeded {
			// Let the seed snapshot through untouched; budget every file
			// after it.
			seeded = true
			return faults.OpenOS(path, flag)
		}
		return (&faults.FSFault{Budget: 64}).Opener()(path, flag)
	}
	j, err := OpenJournal(dir, JournalOptions{Opener: opener, Scope: scope})
	if err != nil {
		t.Fatal(err)
	}
	meta := (&journalRec{Tag: jrecMeta, Body: metaJSON(t, 0, 1)}).encode()
	if err := j.attachFresh([][]byte{meta}); err != nil {
		t.Fatal(err)
	}
	big := journalRec{Tag: jrecCkpt, Slice: 0, Level: 1, Body: make([]byte, 256)}
	j.append(big)
	if !j.Degraded() {
		t.Fatal("append past the byte budget did not degrade the journal")
	}
	if err := j.snapshot([][]byte{meta, big.encode()}); err == nil {
		t.Fatal("snapshot past the byte budget succeeded")
	}

	// A torn tail on a healthy journal, truncated by the next open.
	tornDir := t.TempDir()
	h := openTestJournal(t, tornDir, nil)
	if err := h.attachFresh([][]byte{meta}); err != nil {
		t.Fatal(err)
	}
	h.append(journalRec{Tag: jrecGen, Gen: 1})
	h.wal.Close()
	f, err := os.OpenFile(walPath(tornDir, 0), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x22, 0x01, 0x02})
	f.Close()
	info, err := os.Stat(walPath(tornDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(tornDir, JournalOptions{Scope: scope}); err != nil {
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
	if ev := events["dist_journal_degraded"]; ev["what"] != "append" || !strings.Contains(fmt.Sprint(ev["cause"]), diskFull) {
		t.Fatalf("dist_journal_degraded event %v, want what=append and a disk-full cause", ev)
	}
	if ev := events["dist_journal_snapshot_failed"]; ev["what"] != filepath.Base(snapPath(dir, 1)) || !strings.Contains(fmt.Sprint(ev["cause"]), diskFull) {
		t.Fatalf("dist_journal_snapshot_failed event %v, want the snapshot file and a disk-full cause", ev)
	}
	ev := events["dist_journal_tail_truncated"]
	if ev["what"] != filepath.Base(walPath(tornDir, 0)) || ev["truncated_from"] != float64(info.Size()) ||
		ev["truncated_to"] != float64(info.Size()-3) || ev["cause"] == nil {
		t.Fatalf("dist_journal_tail_truncated event %v, want the WAL cut from %d to %d bytes with a cause", ev, info.Size(), info.Size()-3)
	}
}

// TestJournalSnapshotFailureKeepsWAL: a failing snapshot write leaves the
// current WAL growing — the journal is NOT degraded, and the mutations
// since the last good snapshot stay durable in the longer WAL.
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
	if err := j.attachFresh([][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 0, 1)}).encode()}); err != nil {
		t.Fatal(err)
	}
	j.append(journalRec{Tag: jrecGen, Gen: 1})
	failSnapshots = true
	if err := j.snapshot([][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 1, 1)}).encode()}); err == nil {
		t.Fatal("snapshot with a full disk succeeded")
	}
	if j.Degraded() {
		t.Fatal("failed snapshot degraded the WAL — the WAL is still healthy")
	}
	j.append(journalRec{Tag: jrecGen, Gen: 2})
	j.wal.Close()

	j2 := openTestJournal(t, dir, nil)
	recs := j2.recovered.walRecs
	if len(recs) != 2 || recs[0].Gen != 1 || recs[1].Gen != 2 {
		t.Fatalf("WAL after failed snapshot: %+v", recs)
	}
}

// TestJournalSyncFailDegradesSnapshot: a failing fsync fails the snapshot
// (never publishes a maybe-unsynced file) but keeps the WAL healthy.
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
	if err := j.attachFresh([][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 0, 1)}).encode()}); err != nil {
		t.Fatal(err)
	}
	failSync = true
	if err := j.snapshot([][]byte{(&journalRec{Tag: jrecMeta, Body: metaJSON(t, 1, 1)}).encode()}); err == nil {
		t.Fatal("snapshot with failing fsync succeeded")
	}
	if _, err := os.Stat(snapPath(dir, 1)); err == nil {
		t.Fatal("unsynced snapshot was published")
	}
	if j.Degraded() {
		t.Fatal("failed snapshot fsync degraded the WAL")
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
