package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/obs"
)

// The coordinator's durability layer: a write-ahead journal plus per-level
// snapshots, both in the S20 checksummed-segment format.
//
// Layout of the journal directory:
//
//	state-<seq>.ckpt   atomic snapshot of the whole coordinator state,
//	                   written at every level close (and at attach/recover)
//	wal-<seq>.seg      append-only log of every accepted mutation since
//	                   snapshot <seq>
//
// A snapshot and its WAL pair up: replaying wal-<seq> over state-<seq>
// reproduces the coordinator's in-memory state at the moment of the last
// durable append. The last two pairs are kept (keep-2, matching the
// checkpoint store); if the newest snapshot is corrupt, recovery falls back
// to the previous one and replays *both* WALs — wal-<seq-1> ends with
// exactly the ingest record whose level close produced snapshot <seq>, so
// the chain is gapless.
//
// Appends are not fsynced per record: SIGKILL (the chaos harness's crash)
// loses nothing the OS already buffered, so crash-recovery is exact;
// a power loss can tear the tail, which checkpoint.OpenLog detects and
// truncates to the last intact record — an older but consistent state the
// workers redo forward from deterministically.
//
// Disk faults degrade, never abort: a failed append or snapshot marks the
// journal degraded (memory-only, loud metrics) and the barrier keeps
// running; the next successful snapshot re-establishes durability with a
// fresh WAL.

// Journal record tags. 1–5 are WAL mutations, 10–13 snapshot records.
const (
	jrecCkpt     = 1  // slice checkpoint accepted: slice, level, body
	jrecChunk    = 2  // exchange chunk stored: level, from, to, body
	jrecExpanded = 3  // expand barrier mark: slice, level, steps
	jrecIngested = 4  // ingest barrier mark: slice, level, fresh, digest
	jrecGen      = 5  // generation bump written at the start of a recovery
	jrecMeta     = 10 // snapshot meta (JSON)
	jrecLevel    = 11 // one closed level's stats: fresh, digest
	jrecSlice    = 12 // one slice's full state
	jrecRetained = 13 // one retained exchange chunk: level, from, to, body
)

// errJournalCorrupt tags a journal record whose checksum held but whose
// content does not decode — the condition recovery skips past (keeping the
// intact prefix) and the fuzz target proves is never a panic.
var errJournalCorrupt = errors.New("dist: journal record corrupt")

// journalRec is a decoded journal record; which fields are meaningful
// depends on Tag.
type journalRec struct {
	Tag       byte
	Slice     int
	Level     int
	From, To  int
	Steps     int64
	Fresh     int64
	Digest    explore.Fingerprint
	Gen       int
	Flags     byte
	CkptLevel int
	Reassigns int
	Body      []byte
}

// Slice-state flag bits of a jrecSlice record.
const (
	sflagHasCkpt   = 1 << 0
	sflagExpanded  = 1 << 1
	sflagIngested  = 1 << 2
	sflagEverOwned = 1 << 3
)

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// encode renders the record's payload (the bytes that go inside one
// checksummed segment record).
func (r *journalRec) encode() []byte {
	b := []byte{r.Tag}
	switch r.Tag {
	case jrecCkpt:
		b = appendUvarint(b, uint64(r.Slice))
		b = appendUvarint(b, uint64(r.Level))
		b = append(b, r.Body...)
	case jrecChunk, jrecRetained:
		b = appendUvarint(b, uint64(r.Level))
		b = appendUvarint(b, uint64(r.From))
		b = appendUvarint(b, uint64(r.To))
		b = append(b, r.Body...)
	case jrecExpanded:
		b = appendUvarint(b, uint64(r.Slice))
		b = appendUvarint(b, uint64(r.Level))
		b = appendUvarint(b, uint64(r.Steps))
	case jrecIngested:
		b = appendUvarint(b, uint64(r.Slice))
		b = appendUvarint(b, uint64(r.Level))
		b = appendUvarint(b, uint64(r.Fresh))
		b = appendUvarint(b, r.Digest[0])
		b = appendUvarint(b, r.Digest[1])
	case jrecGen:
		b = appendUvarint(b, uint64(r.Gen))
	case jrecMeta:
		b = append(b, r.Body...)
	case jrecLevel:
		b = appendUvarint(b, uint64(r.Fresh))
		b = appendUvarint(b, r.Digest[0])
		b = appendUvarint(b, r.Digest[1])
	case jrecSlice:
		b = appendUvarint(b, uint64(r.Slice))
		b = append(b, r.Flags)
		b = appendUvarint(b, uint64(r.CkptLevel))
		b = appendUvarint(b, uint64(r.Steps))
		b = appendUvarint(b, uint64(r.Fresh))
		b = appendUvarint(b, r.Digest[0])
		b = appendUvarint(b, r.Digest[1])
		b = appendUvarint(b, uint64(r.Reassigns))
		b = append(b, r.Body...)
	}
	return b
}

// maxJournalInt bounds every decoded integer field: slice indexes, levels
// and counts all stay far below it, so a larger value is corruption, not
// data — and rejecting it here keeps a flipped bit from turning into an
// absurd index downstream.
const maxJournalInt = 1 << 30

// uvarintField decodes one bounded non-negative integer field.
func uvarintField(b []byte, what string) (int, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || v > maxJournalInt {
		return 0, nil, fmt.Errorf("%w: %s", errJournalCorrupt, what)
	}
	return int(v), b[n:], nil
}

// uvarint64Field decodes one unbounded uint64 field (digest halves).
func uvarint64Field(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: %s", errJournalCorrupt, what)
	}
	return v, b[n:], nil
}

// decodeJournalRecord decodes one record payload. Corruption anywhere — an
// unknown tag, a truncated or oversized field, trailing bytes after a
// fixed-size record — fails with an error wrapping errJournalCorrupt and
// never panics; recovery treats the first undecodable record as the end of
// the intact prefix.
func decodeJournalRecord(payload []byte) (journalRec, error) {
	var r journalRec
	if len(payload) == 0 {
		return r, fmt.Errorf("%w: empty record", errJournalCorrupt)
	}
	r.Tag = payload[0]
	b := payload[1:]
	var err error
	switch r.Tag {
	case jrecCkpt:
		if r.Slice, b, err = uvarintField(b, "ckpt slice"); err != nil {
			return r, err
		}
		if r.Level, b, err = uvarintField(b, "ckpt level"); err != nil {
			return r, err
		}
		r.Body = b
	case jrecChunk, jrecRetained:
		if r.Level, b, err = uvarintField(b, "chunk level"); err != nil {
			return r, err
		}
		if r.From, b, err = uvarintField(b, "chunk from"); err != nil {
			return r, err
		}
		if r.To, b, err = uvarintField(b, "chunk to"); err != nil {
			return r, err
		}
		r.Body = b
	case jrecExpanded:
		if r.Slice, b, err = uvarintField(b, "expanded slice"); err != nil {
			return r, err
		}
		if r.Level, b, err = uvarintField(b, "expanded level"); err != nil {
			return r, err
		}
		var steps int
		if steps, b, err = uvarintField(b, "expanded steps"); err != nil {
			return r, err
		}
		r.Steps = int64(steps)
		if len(b) != 0 {
			return r, fmt.Errorf("%w: %d trailing bytes after expanded record", errJournalCorrupt, len(b))
		}
	case jrecIngested:
		if r.Slice, b, err = uvarintField(b, "ingested slice"); err != nil {
			return r, err
		}
		if r.Level, b, err = uvarintField(b, "ingested level"); err != nil {
			return r, err
		}
		var fresh int
		if fresh, b, err = uvarintField(b, "ingested fresh"); err != nil {
			return r, err
		}
		r.Fresh = int64(fresh)
		if r.Digest[0], b, err = uvarint64Field(b, "ingested digest0"); err != nil {
			return r, err
		}
		if r.Digest[1], b, err = uvarint64Field(b, "ingested digest1"); err != nil {
			return r, err
		}
		if len(b) != 0 {
			return r, fmt.Errorf("%w: %d trailing bytes after ingested record", errJournalCorrupt, len(b))
		}
	case jrecGen:
		if r.Gen, b, err = uvarintField(b, "generation"); err != nil {
			return r, err
		}
		if len(b) != 0 {
			return r, fmt.Errorf("%w: %d trailing bytes after generation record", errJournalCorrupt, len(b))
		}
	case jrecMeta:
		r.Body = b
	case jrecLevel:
		var fresh int
		if fresh, b, err = uvarintField(b, "level fresh"); err != nil {
			return r, err
		}
		r.Fresh = int64(fresh)
		if r.Digest[0], b, err = uvarint64Field(b, "level digest0"); err != nil {
			return r, err
		}
		if r.Digest[1], b, err = uvarint64Field(b, "level digest1"); err != nil {
			return r, err
		}
		if len(b) != 0 {
			return r, fmt.Errorf("%w: %d trailing bytes after level record", errJournalCorrupt, len(b))
		}
	case jrecSlice:
		if r.Slice, b, err = uvarintField(b, "slice index"); err != nil {
			return r, err
		}
		if len(b) == 0 {
			return r, fmt.Errorf("%w: slice record missing flags", errJournalCorrupt)
		}
		r.Flags = b[0]
		if r.Flags&^(sflagHasCkpt|sflagExpanded|sflagIngested|sflagEverOwned) != 0 {
			return r, fmt.Errorf("%w: slice record has unknown flags %#x", errJournalCorrupt, r.Flags)
		}
		b = b[1:]
		if r.CkptLevel, b, err = uvarintField(b, "slice ckpt level"); err != nil {
			return r, err
		}
		var steps, fresh int
		if steps, b, err = uvarintField(b, "slice steps"); err != nil {
			return r, err
		}
		r.Steps = int64(steps)
		if fresh, b, err = uvarintField(b, "slice fresh"); err != nil {
			return r, err
		}
		r.Fresh = int64(fresh)
		if r.Digest[0], b, err = uvarint64Field(b, "slice digest0"); err != nil {
			return r, err
		}
		if r.Digest[1], b, err = uvarint64Field(b, "slice digest1"); err != nil {
			return r, err
		}
		if r.Reassigns, b, err = uvarintField(b, "slice reassigns"); err != nil {
			return r, err
		}
		r.Body = b
	default:
		return r, fmt.Errorf("%w: unknown tag %d", errJournalCorrupt, r.Tag)
	}
	return r, nil
}

// journalMeta is the JSON body of a snapshot's jrecMeta record.
type journalMeta struct {
	Seq    uint64    `json:"seq"`
	Gen    int       `json:"gen"`
	Level  int       `json:"level"`
	Steps  int64     `json:"steps"`
	Done   bool      `json:"done"`
	Spec   Spec      `json:"spec"`
	RootFP [2]uint64 `json:"root_fp"`
	Levels int       `json:"levels"`
	Slices int       `json:"slices"`
	Chunks int       `json:"chunks"`
}

// snapSlice is one slice's recovered state.
type snapSlice struct {
	hasCkpt   bool
	expanded  bool
	ingested  bool
	everOwned bool
	ckptLevel int
	steps     int64
	fresh     int64
	digest    explore.Fingerprint
	reassigns int
	ckpt      []byte
}

// journalState is everything recovery rebuilds the coordinator from: the
// newest intact snapshot plus the decoded WAL records to replay over it.
type journalState struct {
	meta    journalMeta
	levels  []LevelStat
	slices  []snapSlice
	chunks  map[chunkKey][]byte
	walRecs []journalRec
}

// FileOpener is the journal's file-creation hook: the production opener is
// faults.OpenOS, the disk-fault tests and -dist-journal-fault substitute
// one that wraps every file in a faults.FaultyFile.
type FileOpener = checkpoint.Opener

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// Opener is the write-side file hook (nil = real os files). The read
	// side always uses plain os files: recovery reads what the disk truly
	// holds.
	Opener FileOpener
	Scope  *obs.Scope
}

// Journal is the coordinator's durability backend. All methods are called
// with the coordinator's mutex held (the coordinator serializes every
// mutation), so the journal itself needs no lock of its own; it still
// never calls back into the coordinator.
type Journal struct {
	dir   string
	open  FileOpener
	scope *obs.Scope

	seq      uint64          // snapshot seq the active WAL extends
	wal      *checkpoint.Log // nil while degraded or before attach
	degraded bool

	recovered *journalState // non-nil until Recover consumes it
}

// The journal's two file families: state-<seq>.ckpt and wal-<seq>.seg.
var (
	snapFiles = checkpoint.SeqFiles{Prefix: "state-", Suffix: ".ckpt", Width: 8}
	walFiles  = checkpoint.SeqFiles{Prefix: "wal-", Suffix: ".seg", Width: 8}
	snapPath  = snapFiles.Path
	walPath   = walFiles.Path
)

// OpenJournal opens (or creates) the journal directory and, when prior
// state exists, loads the newest intact snapshot chain: snapshot N plus
// wal-N, falling back to snapshot N-1 plus both WALs when N is corrupt.
// The torn tail of a WAL — a crash mid-append — is truncated to the last
// intact, decodable record, and wal-N stays open to extend after recovery.
// A directory with snapshot files none of which load is an error: silently
// starting a finished run over would be worse than failing loudly.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: journal dir: %w", err)
	}
	j := &Journal{dir: dir, open: opts.Opener, scope: opts.Scope}
	seqs := snapFiles.List(dir)
	if len(seqs) == 0 {
		return j, nil // fresh directory; AttachJournal seeds snapshot 0
	}
	newest := seqs[len(seqs)-1]
	st, err := j.loadSnapshot(newest)
	var prevRecs []journalRec
	if errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, errJournalCorrupt) {
		// Corrupt-skip fallback: the previous snapshot plus both WALs is
		// the same state — wal-(N-1)'s replay ends exactly where snapshot N
		// begins.
		j.scope.Counter("dist_journal_snapshot_corrupt").Add(1)
		j.scope.Event("dist_journal_snapshot_corrupt", slog.String("cause", err.Error()))
		if len(seqs) < 2 {
			return nil, fmt.Errorf("dist: journal snapshot %d corrupt with no fallback: %w", newest, err)
		}
		prev := seqs[len(seqs)-2]
		if st, err = j.loadSnapshot(prev); err != nil {
			return nil, fmt.Errorf("dist: journal fallback snapshot %d: %w", prev, err)
		}
		wal, recs, err := j.openWAL(prev)
		if err != nil {
			return nil, err
		}
		wal.Close()
		prevRecs = recs
	} else if err != nil {
		return nil, fmt.Errorf("dist: journal snapshot %d: %w", newest, err)
	}
	wal, recs, err := j.openWAL(newest)
	if err != nil {
		return nil, err
	}
	st.walRecs = append(prevRecs, recs...)
	j.seq, j.wal, j.recovered = newest, wal, st
	return j, nil
}

// attachFresh seeds a brand-new journal directory: snapshot 0 of the empty
// run plus an empty active WAL, so a crash before the first level close
// still recovers (to the start).
func (j *Journal) attachFresh(records [][]byte) error {
	if j.recovered != nil {
		return fmt.Errorf("dist: journal holds recovered state, not fresh")
	}
	if _, err := checkpoint.PublishSegment(snapPath(j.dir, 0), j.open, records); err != nil {
		return err
	}
	wal, _, err := j.openWAL(0)
	j.wal = wal
	return err
}

// Recovered reports whether the journal loaded prior state at open.
func (j *Journal) Recovered() bool { return j != nil && j.recovered != nil }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// loadSnapshot reads and decodes one snapshot file into a journalState.
func (j *Journal) loadSnapshot(seq uint64) (*journalState, error) {
	recs, err := checkpoint.ReadSegmentFile(snapPath(j.dir, seq))
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w: empty snapshot", errJournalCorrupt)
	}
	first, err := decodeJournalRecord(recs[0])
	if err != nil {
		return nil, err
	}
	if first.Tag != jrecMeta {
		return nil, fmt.Errorf("%w: snapshot starts with tag %d, want meta", errJournalCorrupt, first.Tag)
	}
	st := &journalState{chunks: make(map[chunkKey][]byte)}
	if err := json.Unmarshal(first.Body, &st.meta); err != nil {
		return nil, fmt.Errorf("%w: snapshot meta: %v", errJournalCorrupt, err)
	}
	if st.meta.Slices <= 0 || st.meta.Slices > maxJournalInt {
		return nil, fmt.Errorf("%w: snapshot declares %d slices", errJournalCorrupt, st.meta.Slices)
	}
	st.slices = make([]snapSlice, st.meta.Slices)
	for _, raw := range recs[1:] {
		r, err := decodeJournalRecord(raw)
		if err != nil {
			return nil, err
		}
		switch r.Tag {
		case jrecLevel:
			st.levels = append(st.levels, LevelStat{Fresh: r.Fresh, Digest: r.Digest})
		case jrecSlice:
			if r.Slice >= len(st.slices) {
				return nil, fmt.Errorf("%w: snapshot slice %d of %d", errJournalCorrupt, r.Slice, len(st.slices))
			}
			s := &st.slices[r.Slice]
			s.hasCkpt = r.Flags&sflagHasCkpt != 0
			s.expanded = r.Flags&sflagExpanded != 0
			s.ingested = r.Flags&sflagIngested != 0
			s.everOwned = r.Flags&sflagEverOwned != 0
			s.ckptLevel = r.CkptLevel
			s.steps = r.Steps
			s.fresh = r.Fresh
			s.digest = r.Digest
			s.reassigns = r.Reassigns
			s.ckpt = slices.Clone(r.Body)
		case jrecRetained:
			st.chunks[chunkKey{level: r.Level, from: r.From, to: r.To}] = slices.Clone(r.Body)
		default:
			return nil, fmt.Errorf("%w: tag %d inside a snapshot", errJournalCorrupt, r.Tag)
		}
	}
	if len(st.levels) != st.meta.Levels || len(st.chunks) != st.meta.Chunks {
		return nil, fmt.Errorf("%w: snapshot declares %d levels/%d chunks, holds %d/%d",
			errJournalCorrupt, st.meta.Levels, st.meta.Chunks, len(st.levels), len(st.chunks))
	}
	return st, nil
}

// openWAL opens wal-<seq> for appending and returns its records: the
// longest prefix that is both checksum-intact and decodable. The tail past
// it — a crash mid-append, or a record whose checksum held over garbage —
// is truncated, loudly. A missing WAL opens empty: the crash may have hit
// between snapshot and WAL creation.
func (j *Journal) openWAL(seq uint64) (*checkpoint.Log, []journalRec, error) {
	path := walPath(j.dir, seq)
	var recs []journalRec
	var decodeErr error
	wal, err := checkpoint.OpenLog(path, j.open, func(raws [][]byte) (int, error) {
		for _, raw := range raws {
			r, err := decodeJournalRecord(raw)
			if err != nil {
				decodeErr = err
				break
			}
			recs = append(recs, r)
		}
		return len(recs), nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dist: journal WAL %d: %w", seq, err)
	}
	if torn := wal.Torn(); torn != nil {
		if decodeErr != nil {
			torn.Cause = decodeErr
		}
		j.scope.Counter("dist_journal_tail_truncated").Add(1)
		j.scope.Event("dist_journal_tail_truncated",
			append(torn.Attrs(), slog.String("what", filepath.Base(path)))...)
	}
	return wal, recs, nil
}

// append logs one mutation. A write failure degrades the journal to
// memory-only — counted and evented loudly, never surfaced to the barrier:
// the run keeps going, it just stops being crash-recoverable until the
// next successful snapshot re-establishes durability.
func (j *Journal) append(rec journalRec) {
	if j == nil || j.degraded || j.wal == nil {
		return
	}
	n, err := j.wal.Append(rec.encode())
	if err != nil {
		j.degrade("append", err)
		return
	}
	j.scope.Counter("dist_journal_appends").Add(1)
	j.scope.Counter("dist_journal_bytes").Add(n)
}

// degrade marks the journal memory-only after a disk fault.
func (j *Journal) degrade(what string, err error) {
	j.degraded = true
	j.closeWAL()
	j.scope.Counter("dist_journal_errors").Add(1)
	j.scope.Gauge("dist_journal_degraded").Set(1)
	j.scope.Event("dist_journal_degraded", slog.String("what", what), slog.String("cause", err.Error()))
}

func (j *Journal) closeWAL() {
	if j.wal != nil {
		j.wal.Close()
		j.wal = nil
	}
}

// Degraded reports whether the journal has fallen back to memory-only.
func (j *Journal) Degraded() bool { return j != nil && j.degraded }

// snapshot atomically publishes the next snapshot from the given records
// and rotates the WAL. On success old snapshot/WAL pairs beyond keep-2 are
// garbage-collected and a degraded journal is re-established (the snapshot
// captured everything the dead WAL missed). On failure the journal keeps
// appending to the current WAL — replay then spans multiple levels, which
// recovery handles — unless that WAL is dead too, in which case it stays
// degraded.
func (j *Journal) snapshot(records [][]byte) error {
	if j == nil {
		return nil
	}
	next := j.seq + 1
	path := snapPath(j.dir, next)
	if _, err := checkpoint.PublishSegment(path, j.open, records); err != nil {
		j.scope.Counter("dist_journal_errors").Add(1)
		j.scope.Event("dist_journal_snapshot_failed",
			slog.String("what", filepath.Base(path)), slog.String("cause", err.Error()))
		return err
	}
	j.closeWAL()
	j.seq = next
	wal, _, err := j.openWAL(next)
	if err != nil {
		j.degrade("rotate", err)
	} else {
		j.wal = wal
		if j.degraded {
			j.degraded = false
			j.scope.Gauge("dist_journal_degraded").Set(0)
			j.scope.Event("dist_journal_recovered_durability")
		}
	}
	j.scope.Counter("dist_journal_snapshots").Add(1)
	// Keep-2 GC. WALs can outlive their snapshot when a snapshot write
	// failed, so both families are swept by the same floor.
	if next >= 2 {
		snapFiles.Prune(j.dir, next-1)
		walFiles.Prune(j.dir, next-1)
	}
	return nil
}

// nextSeq is the sequence number the next snapshot will get.
func (j *Journal) nextSeq() uint64 {
	if j == nil {
		return 0
	}
	return j.seq + 1
}

// IsJournalCorrupt reports whether err marks a corrupt journal record.
func IsJournalCorrupt(err error) bool {
	return errors.Is(err, errJournalCorrupt) || errors.Is(err, checkpoint.ErrCorrupt)
}
