package explore

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"

	"repro/internal/obs"
)

// Frontier storage and the spill governor. A BFS level is two flat arrays
// — node ids and a contiguous []uint64 arena of fixed-width packed
// records, stride words per entry — expanded arenaBatch entries at a time.
//
// On spaces whose widest level outgrows the spill budget, the governor
// flushes cold runs of the accumulating next level to files under
// SpillDir and drops them from memory. A spill chunk is a count-prefixed
// uvarint id list followed by the run's packed words verbatim, so
// reloading a chunk is a read, not a witness-path replay per entry.
// Chunks are flushed from the front of the level and consumed before the
// in-memory remainder, so the visit order — and therefore every id and
// witness path — is identical to an unspilled run.

// arenaBatch is how many packed frontier entries one expansion batch
// holds: large enough to amortise dispatch, small enough that the batch's
// slot configurations stay a rounding error next to the arena itself (a
// variable so the equivalence tests can force many batches onto small
// spaces).
var arenaBatch = 8192

// frontier holds one BFS level as spilled chunks (cold, on disk) followed
// by the in-memory entries (hot), in visit order.
type frontier struct {
	spilled []spillChunk

	// stride is the packed record width in words.
	stride   int
	ids      []int32
	words    []uint64
	memBytes int64
}

// size returns the number of entries across disk and memory.
func (f *frontier) size() int {
	n := len(f.ids)
	for _, ch := range f.spilled {
		n += ch.count
	}
	return n
}

// addPacked appends a freshly discovered entry — its node id and its
// stride-long packed record — charging it to the governor's budget and
// spilling the accumulated tail when over.
func (f *frontier) addPacked(id int32, rec []uint64, g *spillGovernor) {
	f.ids = append(f.ids, id)
	f.words = append(f.words, rec...)
	if g != nil {
		f.memBytes += g.entrySize
		g.maybeSpill(f)
	}
}

// numBatches returns how many expansion batches the level drains in: one
// per spilled chunk, then the in-memory tail in arenaBatch slices.
func (f *frontier) numBatches() int {
	return len(f.spilled) + (len(f.ids)+arenaBatch-1)/arenaBatch
}

// batchBuf is the coordinator's reusable batching scratch: the entry
// window handed to the expander and the reload buffers for spilled chunks.
// One buffer serves one search; a batch dies when the next is built.
type batchBuf struct {
	entries []levelEntry
	ids     []int32
	words   []uint64
}

// batch returns the bi-th batch in frontier order, windowed into buf,
// consuming (reading and deleting) spill files as their turn comes.
func (f *frontier) batch(bi int, buf *batchBuf) ([]levelEntry, error) {
	var (
		ids   []int32
		words []uint64
	)
	if bi < len(f.spilled) {
		ch := &f.spilled[bi]
		var err error
		buf.ids, buf.words, err = readSpillChunk(ch.path, f.stride, buf.ids[:0], buf.words[:0])
		if err != nil {
			return nil, err
		}
		os.Remove(ch.path)
		ch.path = ""
		ids, words = buf.ids, buf.words
	} else {
		lo := (bi - len(f.spilled)) * arenaBatch
		hi := min(lo+arenaBatch, len(f.ids))
		ids = f.ids[lo:hi]
		words = f.words[lo*f.stride : hi*f.stride]
	}
	return buf.window(f.stride, ids, words), nil
}

// window wraps a run of packed records as levelEntry values. Expansion
// enumerates moves from the interned state ids and steps directly on the
// words, so no configuration is decoded here — an entry is just its node
// id and a view into the arena.
func (b *batchBuf) window(stride int, ids []int32, words []uint64) []levelEntry {
	if cap(b.entries) < len(ids) {
		b.entries = make([]levelEntry, len(ids))
	}
	entries := b.entries[:len(ids)]
	for i, id := range ids {
		entries[i] = levelEntry{id: id, words: words[i*stride : (i+1)*stride]}
	}
	return entries
}

// allIDs returns the node ids of every entry in order, reading (but not
// consuming) spilled chunks. Snapshots use it.
func (f *frontier) allIDs() ([]int32, error) {
	out := make([]int32, 0, f.size())
	for i := range f.spilled {
		var err error
		if out, _, err = readSpillChunk(f.spilled[i].path, f.stride, out, nil); err != nil {
			return nil, err
		}
	}
	return append(out, f.ids...), nil
}

// clear retires a consumed frontier for reuse as the next accumulator,
// deleting stray spill files.
func (f *frontier) clear() {
	f.discard()
	f.ids = f.ids[:0]
	f.words = f.words[:0]
	f.memBytes = 0
	f.spilled = f.spilled[:0]
}

// discard deletes any spill files still on disk (normal drains consume
// them all; early exits leave the tail for this to sweep).
func (f *frontier) discard() {
	for i := range f.spilled {
		if p := f.spilled[i].path; p != "" {
			os.Remove(p)
		}
	}
}

// spillChunk is one flushed run of frontier entries: a chunk file plus its
// entry count.
type spillChunk struct {
	path  string
	count int
}

// spillGovernor owns the budget policy. nil disables spilling entirely.
type spillGovernor struct {
	dir       string
	budget    int64
	entrySize int64
	scope     *obs.Scope
	disabled  bool
}

func newSpillGovernor(opts *Options, stride int) *spillGovernor {
	if opts.SpillDir == "" || opts.SpillBudget <= 0 {
		return nil
	}
	return &spillGovernor{
		dir:    opts.SpillDir,
		budget: opts.SpillBudget,
		// An entry is its id plus stride words of arena.
		entrySize: 8*int64(stride) + 8,
		scope:     opts.Obs,
	}
}

// maybeSpill flushes the accumulated in-memory tail once it exceeds the
// budget. A write failure disables the governor for the rest of the search
// — spilling is a memory optimisation, never worth failing a proof over —
// and is reported as a trace event.
func (g *spillGovernor) maybeSpill(f *frontier) {
	entries := len(f.ids)
	if g.disabled || f.memBytes <= g.budget || entries == 0 {
		return
	}
	path, bytes, err := writeSpillChunk(g.dir, f.ids, f.words)
	if err != nil {
		g.disabled = true
		g.scope.Event("spill_error", slog.String("err", err.Error()))
		return
	}
	g.scope.Counter("spill_chunks").Add(1)
	g.scope.Counter("spill_bytes").Add(bytes)
	g.scope.Event("spill_chunk",
		slog.Int("entries", entries),
		slog.Int64("bytes", bytes),
	)
	f.spilled = append(f.spilled, spillChunk{path: path, count: entries})
	f.ids = f.ids[:0]
	f.words = f.words[:0]
	f.memBytes = 0
}

// ErrSpillCorrupt tags any malformation of a spill chunk file — bad magic,
// truncation, a flipped bit anywhere in the payload, trailing garbage. The
// read path verifies the whole file against its checksum trailer before
// parsing a single id, so a corrupt chunk can fail typed but never yield
// wrong ids or attempt an absurd allocation.
var ErrSpillCorrupt = errors.New("explore: spill chunk corrupt")

// spillMagic opens every spill chunk file: a human-greppable tag plus a
// format version byte so `head -c8` identifies the file. Version 2 added
// the sha256 trailer.
const spillMagic = "SBSPILL\x02"

// spillFile is the slice of *os.File the spill writer uses. It is a seam
// for fault injection: the tests swap newSpillFile for one returning a
// faults.FaultyFile (which satisfies this interface structurally) to prove
// disk-pressure failures surface as typed errors instead of truncating.
type spillFile interface {
	io.Writer
	Close() error
	Name() string
}

// newSpillFile creates a fresh spill chunk file in dir; a test hook.
var newSpillFile = func(dir string) (spillFile, error) {
	return os.CreateTemp(dir, "frontier-*.spill")
}

// writeSpillChunk writes one chunk file in dir:
//
//	[8-byte magic][uvarint count][count uvarint ids][words as LE uint64...][sha256 trailer]
//
// The trailer digests every preceding byte. Spill files are transient
// scratch consumed by the same process, so they are not fsynced — but they
// are checksummed: a disk under pressure that short-writes or flips bits
// must surface as a typed read error, never as silently wrong frontier ids
// (the id list steers witness-path replay, so a wrong id corrupts proofs).
func writeSpillChunk(dir string, ids []int32, words []uint64) (string, int64, error) {
	f, err := newSpillFile(dir)
	if err != nil {
		return "", 0, err
	}
	sum := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, sum), 1<<16)
	var buf [binary.MaxVarintLen64]byte
	written := int64(0)
	_, werr := bw.WriteString(spillMagic)
	written += int64(len(spillMagic))
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		written += int64(n)
		_, err := bw.Write(buf[:n])
		return err
	}
	if werr == nil {
		werr = put(uint64(len(ids)))
	}
	for i := 0; werr == nil && i < len(ids); i++ {
		werr = put(uint64(ids[i]))
	}
	for i := 0; werr == nil && i < len(words); i++ {
		binary.LittleEndian.PutUint64(buf[:8], words[i])
		written += 8
		_, werr = bw.Write(buf[:8])
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		// The trailer goes to the file only — it must not digest itself.
		n, terr := f.Write(sum.Sum(nil))
		written += int64(n)
		werr = terr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(f.Name())
		return "", 0, fmt.Errorf("explore: spill chunk write: %w", werr)
	}
	return f.Name(), written, nil
}

// readSpillChunk reads a chunk file back into the provided (reusable)
// slices: the id list, then count*stride packed words.
// The file is verified against its checksum trailer in full before any
// parsing; every malformation is reported wrapping ErrSpillCorrupt.
func readSpillChunk(path string, stride int, ids []int32, words []uint64) ([]int32, []uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < len(spillMagic)+sha256.Size {
		return nil, nil, fmt.Errorf("%w: %s: %d bytes is shorter than magic+trailer", ErrSpillCorrupt, path, len(data))
	}
	if string(data[:len(spillMagic)]) != spillMagic {
		return nil, nil, fmt.Errorf("%w: %s: bad magic %q", ErrSpillCorrupt, path, data[:len(spillMagic)])
	}
	payload := data[:len(data)-sha256.Size]
	var trailer [sha256.Size]byte
	copy(trailer[:], data[len(payload):])
	if sha256.Sum256(payload) != trailer {
		return nil, nil, fmt.Errorf("%w: %s: checksum mismatch", ErrSpillCorrupt, path)
	}
	body := payload[len(spillMagic):]
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, nil, fmt.Errorf("%w: %s: count", ErrSpillCorrupt, path)
	}
	body = body[n:]
	if count > uint64(len(body)) {
		// Each id takes at least one byte; a count beyond the remaining
		// bytes cannot be honest (and must not drive an allocation).
		return nil, nil, fmt.Errorf("%w: %s: count %d exceeds payload", ErrSpillCorrupt, path, count)
	}
	for i := uint64(0); i < count; i++ {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: %s: entry %d", ErrSpillCorrupt, path, i)
		}
		body = body[n:]
		ids = append(ids, int32(v))
	}
	want := count * uint64(stride) * 8
	if uint64(len(body)) != want {
		return nil, nil, fmt.Errorf("%w: %s: %d word bytes, want %d", ErrSpillCorrupt, path, len(body), want)
	}
	for i := uint64(0); i < count*uint64(stride); i++ {
		words = append(words, binary.LittleEndian.Uint64(body[i*8:]))
	}
	return ids, words, nil
}
