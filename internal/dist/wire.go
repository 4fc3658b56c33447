// Package dist shards the level-synchronous reachability exploration
// across worker OS processes and makes the partition crash-tolerant.
//
// The fingerprint space is split into Spec.Slices slices by
// explore.ShardOf; every configuration belongs to exactly one slice, and
// the worker holding that slice's lease owns its visited set and frontier.
// A coordinator (embedded in provesrv or `spacebound -coordinator`) grants
// lease-based slice ownership, renews it on every worker request, runs one
// barrier per BFS level, and aggregates per-level counts and
// XOR-of-fingerprint digests into the run's witness. At each level a slice
// owner ingests the previous level's exchange chunks addressed to it, posts
// a slice checkpoint, expands the frontier — each entry's packed record
// rebuilt by stepping its witness path through explore.Replayer, which
// shares the prefix consecutive paths have in common — ships
// cross-slice children to the coordinator as exchange chunks framed in the
// checksummed checkpoint-segment format (internal/checkpoint.EncodeChunk —
// a torn or corrupted chunk fails typed and is re-requested, never
// partially ingested), and posts one barrier mark carrying its step count
// and its frontier's size and digest. When a lease expires — crash,
// SIGKILL, or a stall injected via internal/faults — the slice is
// regranted to a surviving worker, which rebuilds the visited set and
// frontier from the slice's last checkpoint plus the retained exchange
// chunks; every redo is deterministic, so the merged run produces a
// witness byte-identical to an uninterrupted single-process run's
// (SequentialWitness is that reference).
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/explore"
)

// Spec describes a distributed run. The coordinator serves it at
// /dist/spec and every worker validates its own flags against it before
// taking a lease: a worker exploring a different protocol, process count
// or fingerprint version would silently corrupt the partition.
type Spec struct {
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	Slices   int    `json:"slices"`
	// MaxDepth, when > 0, stops the run after the frontier at that depth
	// is recorded (it is never expanded) — the same cap semantics as
	// explore.Options.MaxDepth, so the sequential reference matches.
	MaxDepth int `json:"max_depth"`
	// LeaseMS is the shard lease: a worker silent for longer loses its
	// slices to the survivors.
	LeaseMS   int64 `json:"lease_ms"`
	FPVersion int   `json:"fp_version"`
}

// Entry is one frontier configuration in flight between processes: its
// canonical fingerprint plus its witness path from the root as packed
// moves (model.PackMove). Configurations themselves are never serialised —
// model.Config holds State interface values, and packed records carry
// process-local dictionary ids — so a receiver rebuilds the packed record
// by stepping the path from its own packed root (explore.Replayer), the
// same philosophy the checkpoint layer uses for frontier snapshots.
type Entry struct {
	FP   explore.Fingerprint
	Path []uint32
}

// AppendEntries appends the wire encoding of entries to dst:
//
//	[uvarint count] then per entry [16-byte fp][uvarint pathlen][uvarint moves...]
func AppendEntries(dst []byte, entries []Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = e.FP.AppendBinary(dst)
		dst = binary.AppendUvarint(dst, uint64(len(e.Path)))
		for _, mv := range e.Path {
			dst = binary.AppendUvarint(dst, uint64(mv))
		}
	}
	return dst
}

// DecodeEntries decodes an AppendEntries body. Entry bodies always travel
// inside checksummed frames (exchange chunks, checkpoint segments), so a
// decode failure here means a framing bug, not line noise — it is still a
// typed error, never a panic or a wrong entry.
func DecodeEntries(body []byte) ([]Entry, error) {
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, fmt.Errorf("dist: entries count: truncated")
	}
	body = body[n:]
	// Every entry costs at least a fingerprint plus a one-byte path length,
	// so bound the declared count by that before sizing the allocation — a
	// crafted count must not amplify a small body into gigabytes of slice
	// (the sha256 framing around entry bodies is a checksum, not a MAC).
	if count > uint64(len(body)/(explore.FingerprintBytes+1)) {
		return nil, fmt.Errorf("dist: entries count %d exceeds payload", count)
	}
	out := make([]Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(body) < explore.FingerprintBytes {
			return nil, fmt.Errorf("dist: entry %d fingerprint: truncated", i)
		}
		fp, err := explore.FingerprintFromBytes(body[:explore.FingerprintBytes])
		if err != nil {
			return nil, err
		}
		body = body[explore.FingerprintBytes:]
		plen, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, fmt.Errorf("dist: entry %d path length: truncated", i)
		}
		body = body[n:]
		if plen > uint64(len(body)) {
			return nil, fmt.Errorf("dist: entry %d path length %d exceeds payload", i, plen)
		}
		path := make([]uint32, plen)
		for j := uint64(0); j < plen; j++ {
			mv, n := binary.Uvarint(body)
			if n <= 0 {
				return nil, fmt.Errorf("dist: entry %d move %d: truncated", i, j)
			}
			if mv > 1<<32-1 {
				return nil, fmt.Errorf("dist: entry %d move %d overflows 32 bits", i, j)
			}
			body = body[n:]
			path[j] = uint32(mv)
		}
		out = append(out, Entry{FP: fp, Path: path})
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("dist: %d trailing bytes after entries", len(body))
	}
	return out, nil
}

// chunkKind is the Kind of every frontier exchange chunk.
const chunkKind = "frontier"

// EncodeFrontierChunk frames the entries of one (level, from, to) exchange
// as a self-verifying chunk.
func EncodeFrontierChunk(level, from, to int, entries []Entry) ([]byte, error) {
	return checkpoint.EncodeChunk(
		checkpoint.ChunkHeader{Kind: chunkKind, Level: level, From: from, To: to, Count: len(entries)},
		AppendEntries(nil, entries),
	)
}

// DecodeFrontierChunk verifies and unpacks an exchange chunk, checking the
// header's declared identity and count against what the caller expected.
// Corruption anywhere fails with an error wrapping checkpoint.ErrCorrupt.
func DecodeFrontierChunk(data []byte, level, from, to int) ([]Entry, error) {
	h, body, err := checkpoint.DecodeChunk(data)
	if err != nil {
		return nil, err
	}
	if h.Kind != chunkKind || h.Level != level || h.From != from || h.To != to {
		return nil, fmt.Errorf("dist: chunk is %s l%d %d->%d, want %s l%d %d->%d",
			h.Kind, h.Level, h.From, h.To, chunkKind, level, from, to)
	}
	entries, err := DecodeEntries(body)
	if err != nil {
		return nil, err
	}
	if len(entries) != h.Count {
		return nil, fmt.Errorf("dist: chunk declares %d entries, holds %d", h.Count, len(entries))
	}
	return entries, nil
}

// SliceCheckpoint is a slice's state at the start of a level: every
// fingerprint the slice has visited (depths <= Level) and the frontier
// entries at exactly Level. A reassigned slice restarts from here.
type SliceCheckpoint struct {
	Slice     int
	Level     int
	FPVersion int
	Visited   []explore.Fingerprint
	Frontier  []Entry
}

// sliceCkptMeta is record 0 of an encoded slice checkpoint.
type sliceCkptMeta struct {
	Slice     int `json:"slice"`
	Level     int `json:"level"`
	FPVersion int `json:"fp_version"`
	Visited   int `json:"visited"`
}

// Encode frames the checkpoint in the checksummed segment format: meta
// JSON, then the visited fingerprints (sorted, so the bytes are
// deterministic), then the frontier entries.
func (ck *SliceCheckpoint) Encode() ([]byte, error) {
	meta, err := json.Marshal(sliceCkptMeta{Slice: ck.Slice, Level: ck.Level, FPVersion: ck.FPVersion, Visited: len(ck.Visited)})
	if err != nil {
		return nil, err
	}
	sorted := slices.Clone(ck.Visited)
	slices.SortFunc(sorted, func(a, b explore.Fingerprint) int {
		if a[0] != b[0] {
			if a[0] < b[0] {
				return -1
			}
			return 1
		}
		if a[1] != b[1] {
			if a[1] < b[1] {
				return -1
			}
			return 1
		}
		return 0
	})
	visited := make([]byte, 0, len(sorted)*explore.FingerprintBytes)
	for _, fp := range sorted {
		visited = fp.AppendBinary(visited)
	}
	var buf bytes.Buffer
	sw, err := checkpoint.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, rec := range [][]byte{meta, visited, AppendEntries(nil, ck.Frontier)} {
		if err := sw.Append(rec); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// DecodeSliceCheckpoint verifies and unpacks an encoded slice checkpoint.
func DecodeSliceCheckpoint(data []byte) (*SliceCheckpoint, error) {
	recs, err := checkpoint.ReadSegment(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if len(recs) != 3 {
		return nil, fmt.Errorf("dist: slice checkpoint has %d records, want 3", len(recs))
	}
	var meta sliceCkptMeta
	if err := json.Unmarshal(recs[0], &meta); err != nil {
		return nil, fmt.Errorf("dist: slice checkpoint meta: %w", err)
	}
	if len(recs[1])%explore.FingerprintBytes != 0 || len(recs[1])/explore.FingerprintBytes != meta.Visited {
		return nil, fmt.Errorf("dist: slice checkpoint declares %d visited fingerprints, holds %d bytes", meta.Visited, len(recs[1]))
	}
	ck := &SliceCheckpoint{Slice: meta.Slice, Level: meta.Level, FPVersion: meta.FPVersion}
	ck.Visited = make([]explore.Fingerprint, 0, meta.Visited)
	for b := recs[1]; len(b) > 0; b = b[explore.FingerprintBytes:] {
		fp, err := explore.FingerprintFromBytes(b[:explore.FingerprintBytes])
		if err != nil {
			return nil, err
		}
		ck.Visited = append(ck.Visited, fp)
	}
	if ck.Frontier, err = DecodeEntries(recs[2]); err != nil {
		return nil, err
	}
	return ck, nil
}
