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

// The coordinator's durability layer: one atomic snapshot of the whole
// coordinator state per level close, in the S20 checksummed-segment format.
//
// Layout of the journal directory:
//
//	state-<seq>.ckpt   atomic, fsynced snapshot written at every level
//	                   close, when a fresh journal is attached, and after
//	                   every recovery
//
// Every snapshot is self-contained. The last two are kept (keep-2,
// matching the checkpoint store); if the newest is corrupt, recovery falls
// back to the previous one. The posts accepted since the last level close
// are not journalled: a crash loses them, and the workers redo the level
// in flight, byte-identically, from the snapshot's checkpoints and
// retained chunks.
//
// Disk faults degrade, never abort: a failed level-close snapshot is
// counted and evented, the barrier keeps running on its in-memory state,
// and the previous snapshot stays the recovery point until the next
// successful one.

// Journal record tags, all of them snapshot records. Tags 1-3 and 5
// belonged to a write-ahead log that journals no longer keep; they decode
// as unknown.
const (
	jrecMeta     = 10 // snapshot meta (JSON)
	jrecLevel    = 11 // one closed level's stats: fresh, digest
	jrecSlice    = 12 // one slice's full state
	jrecRetained = 13 // one retained exchange chunk: level, from, to, body
)

// errJournalCorrupt tags a journal record whose checksum held but whose
// content does not decode — the condition that makes recovery skip a
// snapshot, and that the fuzz target proves is never a panic.
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
	Flags     byte
	CkptLevel int
	Reassigns int
	Body      []byte
}

// Slice-state flag bits of a jrecSlice record.
const (
	sflagHasCkpt   = 1 << 0
	sflagExpanded  = 1 << 1
	sflagEverOwned = 1 << 3
)

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// encode renders the record's payload (the bytes that go inside one
// checksummed segment record).
func (r *journalRec) encode() []byte {
	b := []byte{r.Tag}
	switch r.Tag {
	case jrecRetained:
		b = appendUvarint(b, uint64(r.Level))
		b = appendUvarint(b, uint64(r.From))
		b = appendUvarint(b, uint64(r.To))
		b = append(b, r.Body...)
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
// never panics.
func decodeJournalRecord(payload []byte) (journalRec, error) {
	var r journalRec
	if len(payload) == 0 {
		return r, fmt.Errorf("%w: empty record", errJournalCorrupt)
	}
	r.Tag = payload[0]
	b := payload[1:]
	var err error
	switch r.Tag {
	case jrecRetained:
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
		if r.Flags&^(sflagHasCkpt|sflagExpanded|sflagEverOwned) != 0 {
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

// journalFormat names the snapshot layout: one barrier mark per slice per
// level, and a levels list that at level L holds depths 0..L-1. The
// two-phase coordinator's snapshots carry no format (it reads as 0), and
// their levels list at level L already holds depth L, so recovering from
// one here would count a depth twice. AttachJournal refuses any other
// format. Journals that also kept a write-ahead log wrote this same
// format; their snapshots load, and their log segments are ignored.
const journalFormat = 1

// journalMeta is the JSON body of a snapshot's jrecMeta record.
type journalMeta struct {
	Format int       `json:"format"`
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
	everOwned bool
	ckptLevel int
	mark      levelMark
	reassigns int
	ckpt      []byte
}

// journalState is everything recovery rebuilds the coordinator from: the
// newest intact snapshot.
type journalState struct {
	meta   journalMeta
	levels []LevelStat
	slices []snapSlice
	chunks map[chunkKey][]byte
	// skipped is set when OpenJournal passed over a corrupt newer
	// snapshot to load this one. That snapshot may carry one generation
	// more than this one, so recovery must bump past it.
	skipped bool
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

	seq       uint64        // the sequence number the next snapshot gets
	recovered *journalState // non-nil until AttachJournal consumes it
}

// snapFiles names the journal's snapshots: state-<seq>.ckpt.
var snapFiles = checkpoint.SeqFiles{Prefix: "state-", Suffix: ".ckpt", Width: 8}

// OpenJournal opens (or creates) the journal directory and, when prior
// state exists, loads the newest intact snapshot, falling back to the
// previous one when the newest is corrupt. A directory with snapshot files
// none of which load is an error: silently starting a finished run over
// would be worse than failing loudly. Files other than snapshots are
// ignored.
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
	if IsJournalCorrupt(err) {
		// Every snapshot is self-contained: the previous one is an older
		// recovery point the workers redo forward from.
		j.scope.Counter("dist_journal_snapshot_corrupt").Add(1)
		j.scope.Event("dist_journal_snapshot_corrupt", slog.String("cause", err.Error()))
		if len(seqs) < 2 {
			return nil, fmt.Errorf("dist: journal snapshot %d corrupt with no fallback: %w", newest, err)
		}
		prev := seqs[len(seqs)-2]
		if st, err = j.loadSnapshot(prev); err != nil {
			return nil, fmt.Errorf("dist: journal fallback snapshot %d: %w", prev, err)
		}
		st.skipped = true
	} else if err != nil {
		return nil, fmt.Errorf("dist: journal snapshot %d: %w", newest, err)
	}
	j.seq, j.recovered = newest+1, st
	return j, nil
}

// Recovered reports whether the journal loaded prior state at open.
func (j *Journal) Recovered() bool { return j != nil && j.recovered != nil }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// loadSnapshot reads and decodes one snapshot file into a journalState.
func (j *Journal) loadSnapshot(seq uint64) (*journalState, error) {
	recs, err := checkpoint.ReadSegmentFile(snapFiles.Path(j.dir, seq))
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
			s.everOwned = r.Flags&sflagEverOwned != 0
			s.ckptLevel = r.CkptLevel
			s.mark = levelMark{Steps: r.Steps, Fresh: r.Fresh, Digest: r.Digest}
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

// snapshot atomically publishes the next snapshot from the given records
// and, on success, garbage-collects snapshots beyond keep-2. On failure the
// previous snapshot stays the recovery point.
func (j *Journal) snapshot(records [][]byte) error {
	path := snapFiles.Path(j.dir, j.seq)
	if _, err := checkpoint.PublishSegment(path, j.open, records); err != nil {
		j.scope.Counter("dist_journal_errors").Add(1)
		j.scope.Event("dist_journal_snapshot_failed",
			slog.String("what", filepath.Base(path)), slog.String("cause", err.Error()))
		return err
	}
	j.scope.Counter("dist_journal_snapshots").Add(1)
	if j.seq >= 2 {
		snapFiles.Prune(j.dir, j.seq-1)
	}
	j.seq++
	return nil
}

// IsJournalCorrupt reports whether err marks a corrupt journal record.
func IsJournalCorrupt(err error) bool {
	return errors.Is(err, errJournalCorrupt) || errors.Is(err, checkpoint.ErrCorrupt)
}
