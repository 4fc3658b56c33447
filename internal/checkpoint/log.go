package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/faults"
)

// Opener opens a file for writing. Every write, fsync and close of a
// published file or a Log goes through the File it returns, so a test (or
// a chaos schedule) swaps in a faults.FaultyFile here. nil means
// faults.OpenOS. Reads never go through it: recovery reads what the disk
// truly holds.
type Opener func(path string, flag int) (faults.File, error)

func (open Opener) orOS() Opener {
	if open == nil {
		return faults.OpenOS
	}
	return open
}

// WriteFileAtomic publishes a file crash-safely: the write callback
// produces the content into a temp file in the target directory, the temp
// file is fsynced and closed, atomically renamed over path, and the
// directory is fsynced so the rename itself is durable. A crash at any
// point leaves either the previous file or the complete new one under
// path — never a torn intermediate. Returns the number of bytes written.
func WriteFileAtomic(path string, write func(io.Writer) (int64, error)) (int64, error) {
	return publish(path, nil, write)
}

// PublishSegment atomically publishes a segment file holding records,
// writing through open (see WriteFileAtomic). Returns the bytes written.
func PublishSegment(path string, open Opener, records [][]byte) (int64, error) {
	return publish(path, open, func(w io.Writer) (int64, error) {
		sw, err := NewWriter(w)
		if err != nil {
			return 0, err
		}
		for _, rec := range records {
			if err := sw.Append(rec); err != nil {
				return sw.Bytes(), err
			}
		}
		return sw.Bytes(), nil
	})
}

func publish(path string, open Opener, write func(io.Writer) (int64, error)) (int64, error) {
	tmp, err := createTemp(path, open.orOS())
	if err != nil {
		return 0, fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmpName := tmp.Name()
	n, err := write(tmp)
	if err == nil {
		if err = tmp.Sync(); err != nil {
			err = fmt.Errorf("checkpoint: fsync %s: %w", tmpName, err)
		}
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("checkpoint: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("checkpoint: rename: %w", err)
	}
	return n, syncDir(filepath.Dir(path))
}

// createTemp creates a new sibling of path whose name ends in ".tmp". The
// random infix keeps concurrent publishes of one path apart.
func createTemp(path string, open Opener) (faults.File, error) {
	for try := 0; ; try++ {
		f, err := open(fmt.Sprintf("%s.%08x.tmp", path, rand.Uint32()), os.O_CREATE|os.O_EXCL|os.O_WRONLY)
		if !errors.Is(err, fs.ErrExist) || try == 100 {
			return f, err
		}
	}
}

// syncDir fsyncs a directory so a just-completed rename survives power
// loss. Filesystems that refuse to sync directories (some network mounts)
// degrade to rename-only atomicity, which is still torn-write safe.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("checkpoint: fsync dir %s: %w", dir, err)
	}
	return nil
}

// SeqFiles is a family of sequence-numbered files in one directory, named
// Prefix, then the sequence number zero-padded to Width digits, then
// Suffix — snap-000000000007.ckpt, state-00000003.ckpt.
type SeqFiles struct {
	Prefix, Suffix string
	Width          int
}

// Path names file seq of the family in dir.
func (s SeqFiles) Path(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", s.Prefix, s.Width, seq, s.Suffix))
}

// List returns the sequence numbers of the family's regular files in dir,
// ascending. Temp files and foreign names are ignored.
func (s SeqFiles) List(dir string) []uint64 {
	// An unreadable directory lists as empty: the caller's next read or
	// write in it reports the failure.
	entries, _ := os.ReadDir(dir)
	var seqs []uint64
	for _, e := range entries {
		digits, okPrefix := strings.CutPrefix(e.Name(), s.Prefix)
		digits, okSuffix := strings.CutSuffix(digits, s.Suffix)
		if !okPrefix || !okSuffix || !e.Type().IsRegular() {
			continue
		}
		if seq, err := strconv.ParseUint(digits, 10, 64); err == nil {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs
}

// Prune removes the family's files in dir whose sequence number is below
// floor. It is best effort: a file that survives is pruned next time.
func (s SeqFiles) Prune(dir string, floor uint64) {
	for _, seq := range s.List(dir) {
		if seq < floor {
			os.Remove(s.Path(dir, seq))
		}
	}
}

// Log is an append-only segment file. OpenLog recovers it after a crash,
// Append adds one record, and a failed Append rolls the file back to the
// last record boundary so the stream stays clean. When to fsync is the
// consumer's policy: Sync makes every appended record durable, and a
// failed Sync rolls back the records appended since the last good one,
// since none of them can be acknowledged. A Log is not safe for concurrent
// use.
type Log struct {
	path   string
	f      faults.File
	w      *Writer
	end    int64 // offset just past the last whole record
	synced int64 // end as of the last successful Sync
	err    error // a rollback failed: the tail may hold garbage
	torn   *TornTail
}

// TornTail describes the bytes OpenLog cut off the end of an existing log.
type TornTail struct {
	From, To int64 // file size before the cut, and after it
	Cause    error // what ended the kept prefix
}

// Attrs renders the cut as trace event attributes.
func (t *TornTail) Attrs() []slog.Attr {
	return []slog.Attr{
		slog.Int64("truncated_from", t.From),
		slog.Int64("truncated_to", t.To),
		slog.String("cause", t.Cause.Error()),
	}
}

// OpenLog opens the log at path for appending through open. It reads the
// file as it lies on disk and hands check the records of its
// checksum-intact prefix; check returns how many of them to keep
// (0 ≤ keep ≤ len(records)), or an error that refuses the file. OpenLog
// truncates every byte after the kept records (reported by Torn) and
// appends from there. A missing or empty file, or one torn inside its
// header, starts over with a fresh header. A refused file — by check, or
// because it does not start with the segment magic — is left untouched;
// the error then wraps check's error or ErrCorrupt.
func OpenLog(path string, open Opener, check func(records [][]byte) (keep int, err error)) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("checkpoint: log: %w", err)
	}
	var records [][]byte
	var end int64
	var cause error
	size := int64(len(data))
	if size > 0 { // a new log skips the scan and its 64 KiB read buffer
		records, end, cause = readRecords(bytes.NewReader(data))
	}
	if end == 0 && size >= int64(len(segmentMagic)) {
		return nil, fmt.Errorf("checkpoint: log %s: %w", path, cause)
	}
	keep, err := check(records)
	if err != nil {
		return nil, err
	}
	if keep < len(records) {
		cause = corruptf("record %d rejected by the log's reader", keep)
		end = int64(len(segmentMagic))
		for _, rec := range records[:keep] {
			end += recordLen(rec)
		}
	}
	l := &Log{path: path, end: end, synced: end}
	if size > end {
		if err := os.Truncate(path, end); err != nil {
			return nil, fmt.Errorf("checkpoint: truncating torn log tail: %w", err)
		}
		l.torn = &TornTail{From: size, To: end, Cause: cause}
	}
	if l.f, err = open.orOS()(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND); err != nil {
		return nil, err
	}
	if end > 0 {
		l.w = NewAppendWriter(l.f)
		return l, nil
	}
	if l.w, err = NewWriter(l.f); err != nil {
		l.f.Close()
		return nil, err
	}
	l.end, l.synced = l.w.Bytes(), l.w.Bytes()
	return l, nil
}

// Append writes one record and returns its size on disk. A failed write
// truncates the file back to the previous record boundary; if that
// rollback fails too, the log refuses every later Append rather than write
// after garbage.
func (l *Log) Append(payload []byte) (int64, error) {
	if l.err != nil {
		return 0, l.err
	}
	if err := l.w.Append(payload); err != nil {
		l.rollback(l.end)
		return 0, err
	}
	n := recordLen(payload)
	l.end += n
	return n, nil
}

// Sync fsyncs the log. On failure it rolls back every record appended
// since the last successful Sync.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		l.rollback(l.synced)
		return err
	}
	l.synced = l.end
	return nil
}

func (l *Log) rollback(off int64) {
	if err := os.Truncate(l.path, off); err != nil && l.err == nil {
		l.err = fmt.Errorf("checkpoint: log rollback: %w", err)
	}
	l.end = off
}

// Close closes the log file without syncing it.
func (l *Log) Close() error { return l.f.Close() }

// Torn reports what OpenLog cut off the end of the file, or nil.
func (l *Log) Torn() *TornTail { return l.torn }
