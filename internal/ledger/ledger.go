package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// ErrCorrupt is returned (wrapped) whenever a ledger record or the chain
// it forms fails validation: malformed encoding, a recomputed Merkle root
// that disagrees with the recorded one, a broken prev-root link, or a
// non-contiguous batch sequence.
var ErrCorrupt = errors.New("ledger: corrupt")

// ErrNotFound is returned by Proof for a job id the ledger has not
// committed.
var ErrNotFound = errors.New("ledger: job not in ledger")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// Decoding bounds, in the spirit of the checkpoint schema: corruption must
// fail typed, never allocate wild.
const (
	maxBatchItems = 1 << 20
	maxJobIDLen   = 1 << 10
)

// recBatch tags a batch record (the only record kind so far; the tag keeps
// the format extensible the way snapshot sections are).
const recBatch = 1

// Item is one ledgered result: a job id and the sha256 of its witness
// artifact bytes.
type Item struct {
	JobID   string `json:"job_id"`
	Witness Hash   `json:"witness_sha256"`
}

// Batch is one committed Merkle batch. Root covers the items' leaf hashes;
// PrevRoot is the previous batch's Root (zero for the genesis batch), which
// chains the whole ledger so truncating or rewriting history breaks every
// later batch.
type Batch struct {
	Seq             uint64 `json:"seq"`
	PrevRoot        Hash   `json:"prev_root"`
	Root            Hash   `json:"root"`
	WrittenUnixNano int64  `json:"written_unix_nano"`
	Items           []Item `json:"items"`
}

// leaves computes the batch's leaf hashes in item order.
func (b *Batch) leaves() []Hash {
	out := make([]Hash, len(b.Items))
	for i, it := range b.Items {
		out[i] = LeafHash(it.JobID, it.Witness)
	}
	return out
}

// encodeBatch serialises a batch record payload (tag byte + uvarint/bytes
// fields, mirroring the checkpoint snapshot encoding).
func encodeBatch(b *Batch) []byte {
	buf := []byte{recBatch}
	buf = binary.AppendUvarint(buf, b.Seq)
	buf = append(buf, b.PrevRoot[:]...)
	buf = append(buf, b.Root[:]...)
	buf = binary.AppendUvarint(buf, uint64(b.WrittenUnixNano))
	buf = binary.AppendUvarint(buf, uint64(len(b.Items)))
	for _, it := range b.Items {
		buf = binary.AppendUvarint(buf, uint64(len(it.JobID)))
		buf = append(buf, it.JobID...)
		buf = append(buf, it.Witness[:]...)
	}
	return buf
}

// batchDec is a bounds-checked cursor over a batch record payload.
type batchDec struct {
	data []byte
	off  int
	err  error
}

func (d *batchDec) fail(what string) {
	if d.err == nil {
		d.err = corruptf("decoding %s at offset %d", what, d.off)
	}
}

func (d *batchDec) uint(what string) uint64 {
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

func (d *batchDec) hash(what string) Hash {
	var h Hash
	if d.err != nil {
		return h
	}
	if d.off+len(h) > len(d.data) {
		d.fail(what)
		return h
	}
	copy(h[:], d.data[d.off:])
	d.off += len(h)
	return h
}

func (d *batchDec) str(what string, maxLen uint64) string {
	n := d.uint(what + " length")
	if d.err == nil && n > maxLen {
		d.fail(what + " (out of range)")
	}
	if d.err != nil {
		return ""
	}
	if d.off+int(n) > len(d.data) {
		d.fail(what)
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// DecodeBatch rebuilds a batch from a record payload. Malformed input —
// wrong tag, truncation, hostile counts, trailing bytes — fails as
// ErrCorrupt; it never panics. The batch's Merkle root is NOT recomputed
// here (that is chain verification, see VerifyChain), only structure.
func DecodeBatch(payload []byte) (*Batch, error) {
	if len(payload) == 0 {
		return nil, corruptf("empty batch record")
	}
	if payload[0] != recBatch {
		return nil, corruptf("unknown record tag %d", payload[0])
	}
	d := &batchDec{data: payload, off: 1}
	b := &Batch{
		Seq:      d.uint("batch seq"),
		PrevRoot: d.hash("batch prev root"),
		Root:     d.hash("batch root"),
	}
	b.WrittenUnixNano = int64(d.uint("batch written"))
	n := d.uint("batch item count")
	if d.err == nil && n > maxBatchItems {
		d.fail("batch item count (out of range)")
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		b.Items = append(b.Items, Item{
			JobID:   d.str("item job id", maxJobIDLen),
			Witness: d.hash("item witness"),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.data) {
		return nil, corruptf("%d trailing bytes after batch record", len(d.data)-d.off)
	}
	return b, nil
}

// VerifyChain checks a decoded batch sequence end to end: contiguous seqs
// from 1, non-empty batches, every recorded root equal to the recomputed
// Merkle root of its items, and every prev-root equal to its predecessor's
// root (zero for genesis).
func VerifyChain(batches []*Batch) error {
	var prev Hash
	for i, b := range batches {
		if b.Seq != uint64(i)+1 {
			return corruptf("batch %d has seq %d, want %d", i, b.Seq, i+1)
		}
		if len(b.Items) == 0 {
			return corruptf("batch seq %d is empty", b.Seq)
		}
		if b.PrevRoot != prev {
			return corruptf("batch seq %d prev-root %s breaks the chain (want %s)", b.Seq, b.PrevRoot, prev)
		}
		if got := MerkleRoot(b.leaves()); got != b.Root {
			return corruptf("batch seq %d root %s does not match its items (recomputed %s)", b.Seq, b.Root, got)
		}
		prev = b.Root
	}
	return nil
}

// itemRef locates one committed item inside the in-memory mirror.
type itemRef struct {
	batch int
	index int
}

// Ledger is the live append side: it owns the ledger file, keeps a full
// in-memory mirror of the committed batches (the chain is tiny next to the
// proofs it attests), and serves inclusion proofs per job.
type Ledger struct {
	mu      sync.Mutex
	log     *checkpoint.Log
	batches []*Batch
	index   map[string]itemRef
	scope   *obs.Scope
	now     func() int64 // batch timestamp source (tests pin it)
}

// Open opens (or creates) the ledger file at path, replays and verifies
// its chain, and truncates a torn tail left by a crash mid-append — the
// records after the tear were never acknowledged, so dropping them is
// recovery, not data loss (the server re-commits unledgered results on its
// recovery sweep). A file whose intact prefix fails chain verification is
// refused before anything touches it: that is tampering or rot, not a
// crash artifact.
func Open(path string, scope *obs.Scope) (*Ledger, error) {
	l := &Ledger{index: make(map[string]itemRef), scope: scope,
		now: func() int64 { return time.Now().UnixNano() }}
	log, err := checkpoint.OpenLog(path, nil, func(records [][]byte) (int, error) {
		for _, rec := range records {
			b, err := DecodeBatch(rec)
			if err != nil {
				return 0, err
			}
			l.batches = append(l.batches, b)
		}
		return len(records), VerifyChain(l.batches)
	})
	if err != nil {
		return nil, fmt.Errorf("ledger: %s: %w", path, err)
	}
	if torn := log.Torn(); torn != nil {
		// Crash mid-append: the torn tail is gone and the chain continues
		// from the last intact record. Loud in obs — operators should see
		// every tear.
		scope.Counter("ledger_torn_tails").Add(1)
		scope.Event("ledger_torn_tail", torn.Attrs()...)
	}
	if err := log.Sync(); err != nil {
		log.Close()
		return nil, fmt.Errorf("ledger: sync %s: %w", path, err)
	}
	l.log = log
	for bi, b := range l.batches {
		for ii, it := range b.Items {
			l.index[it.JobID] = itemRef{batch: bi, index: ii}
		}
	}
	return l, nil
}

// Append commits one batch of items: it computes the Merkle root, chains
// it to the previous root, appends the record and fsyncs before
// acknowledging. A failed write or fsync rolls the file back to the last
// committed record, so a later append continues a clean stream.
func (l *Ledger) Append(items []Item) (*Batch, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("ledger: refusing to append an empty batch")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := &Batch{
		Seq:             uint64(len(l.batches)) + 1,
		WrittenUnixNano: l.now(),
		Items:           append([]Item(nil), items...),
	}
	if n := len(l.batches); n > 0 {
		b.PrevRoot = l.batches[n-1].Root
	}
	b.Root = MerkleRoot(b.leaves())
	if _, err := l.log.Append(encodeBatch(b)); err != nil {
		return nil, fmt.Errorf("ledger: append batch %d: %w", b.Seq, err)
	}
	if err := l.log.Sync(); err != nil {
		return nil, fmt.Errorf("ledger: sync batch %d: %w", b.Seq, err)
	}
	l.batches = append(l.batches, b)
	for ii, it := range b.Items {
		l.index[it.JobID] = itemRef{batch: len(l.batches) - 1, index: ii}
	}
	return b, nil
}

// Contains reports whether jobID has been committed.
func (l *Ledger) Contains(jobID string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.index[jobID]
	return ok
}

// Len reports committed batches and items.
func (l *Ledger) Len() (batches, items int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.batches {
		items += len(b.Items)
	}
	return len(l.batches), items
}

// Head returns the latest batch seq and root (zero values for an empty
// ledger) — what a relying party pins to audit the service later.
func (l *Ledger) Head() (seq uint64, root Hash) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.batches); n > 0 {
		return l.batches[n-1].Seq, l.batches[n-1].Root
	}
	return 0, Hash{}
}

// Proof builds the inclusion proof for jobID, or ErrNotFound.
func (l *Ledger) Proof(jobID string) (*Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ref, ok := l.index[jobID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, jobID)
	}
	b := l.batches[ref.batch]
	it := b.Items[ref.index]
	return &Proof{
		JobID:    it.JobID,
		Witness:  it.Witness,
		Leaf:     LeafHash(it.JobID, it.Witness),
		BatchSeq: b.Seq,
		Index:    ref.index,
		Steps:    merkleProof(b.leaves(), ref.index),
		Root:     b.Root,
		PrevRoot: b.PrevRoot,
	}, nil
}

// Close syncs and closes the ledger file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.Sync(); err != nil {
		l.log.Close()
		return fmt.Errorf("ledger: close sync: %w", err)
	}
	return l.log.Close()
}

// VerifyLedger reads the ledger file at path strictly — torn tails and all
// other malformations fail — decodes every batch and verifies the full
// chain. It returns the verified batch and item counts.
func VerifyLedger(path string) (batches, items int, err error) {
	records, err := checkpoint.ReadSegmentFile(path)
	if err != nil {
		return 0, 0, err
	}
	decoded := make([]*Batch, 0, len(records))
	for i, rec := range records {
		b, err := DecodeBatch(rec)
		if err != nil {
			return 0, 0, fmt.Errorf("record %d: %w", i, err)
		}
		decoded = append(decoded, b)
	}
	if err := VerifyChain(decoded); err != nil {
		return 0, 0, err
	}
	for _, b := range decoded {
		items += len(b.Items)
	}
	return len(decoded), items, nil
}
