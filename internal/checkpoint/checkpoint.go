// Package checkpoint makes long-running proofs survive process death: it
// persists what the adversary engine has learned — the valency memo and
// the current proof stage — to crash-safe snapshot files between valency
// queries, and loads the newest intact snapshot back on resume. A resumed
// run replays the memo and runs the query the crash interrupted again from
// its start.
//
// The durability contract is deliberately simple:
//
//   - A snapshot is one segment file of length-prefixed, SHA-256-checksummed
//     records (see segment.go). Any truncation or bit flip is detected and
//     reported as ErrCorrupt; a corrupt record is never loaded silently.
//   - Snapshot files are written via temp file + fsync + atomic rename
//     (WriteFileAtomic), so a crash at any byte boundary leaves either the
//     previous snapshot or the new one, never a half-written file under the
//     final name.
//   - The Store keeps the newest few snapshots and loads the newest one
//     that decodes cleanly, so even a corrupt latest file (torn disk, bad
//     sector) falls back to the one before it instead of failing the run.
//
// The package is deliberately dependency-light (standard library,
// internal/model for moves, internal/obs for counters and internal/faults
// for the File its writes go through): internal/valency imports it, not
// the other way round. The memo's paths are model.Move slices, the
// engine's own type, so nothing is copied field by field on the way to or
// from disk.
//
// A snapshot resumes only the run it was written by: Meta.Check is the one
// compatibility rule, and adversary.Open is the one place that applies it.
//
// log.go holds every durable-file policy the repository uses — atomic
// publish, the append-only Log, keep-N pruning — for the snapshot store,
// the dist coordinator's journal and the witness ledger alike.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is returned (wrapped) whenever a segment file or snapshot
// record fails validation: bad magic, truncated length prefix, truncated
// payload, checksum mismatch, or a malformed field inside a record. Loaders
// treat it as "this file does not exist" and fall back, never as data.
var ErrCorrupt = errors.New("checkpoint: corrupt segment")

// corruptf wraps ErrCorrupt with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// enc is an append-only buffer for the snapshot schema: unsigned varints
// for every integer (all schema integers are non-negative) and
// length-prefixed byte strings.
type enc struct {
	buf []byte
}

func (e *enc) uint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *enc) int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("checkpoint: encoding negative int %d", v))
	}
	e.uint(uint64(v))
}

func (e *enc) str(s string) {
	e.uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// dec is the bounds-checked mirror of enc. Every read reports ErrCorrupt on
// malformed input instead of panicking; the fuzz tests hold it to that.
type dec struct {
	data []byte
	off  int
	err  error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = corruptf("decoding %s at offset %d", what, d.off)
	}
}

func (d *dec) uint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

// intn decodes a non-negative int with an upper bound; the bound keeps a
// corrupt length field from turning into a giant allocation.
func (d *dec) intn(what string, max uint64) int {
	v := d.uint(what)
	if d.err == nil && v > max {
		d.fail(what + " (out of range)")
		return 0
	}
	return int(v)
}

func (d *dec) str(what string, maxLen uint64) string {
	n := d.intn(what+" length", maxLen)
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.data) {
		d.fail(what)
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

// done reports decoding success and requires the payload to be fully
// consumed (trailing garbage is corruption, not padding).
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return corruptf("%d trailing bytes after record", len(d.data)-d.off)
	}
	return nil
}
