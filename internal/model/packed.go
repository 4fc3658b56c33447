package model

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements the bit-packed fixed-width configuration encoding
// behind the exploration engine's arena frontiers (DESIGN.md S22).
//
// A PackedCodec interns every distinct process state and register value it
// sees into per-protocol dictionaries and represents a Config as a short
// []uint64 of fixed-width dictionary indices: one state field per process,
// one value field per register. Packing is dictionary-building (the codec
// grows as exploration discovers states); unpacking is two array reads per
// field. Because states are interned by their exact State.Key bytes, the
// round trip Unpack(Pack(c)) yields a configuration whose key is
// byte-identical to c's — TestPackedCodecRoundTripsKey holds that contract.
//
// Each dictionary id also keeps a key template, so a record's key is
// rendered without unpacking it (AppendKey): under a Canon, the id's
// canonical key bytes with the round fields cut out; without one, its exact
// key. TestPackedKeyMatchesConfigKey and FuzzPackedCodecRoundTrip hold the
// rendered keys to the Config path, model.AppendKey.
//
// Dictionary indices are assigned in discovery order, so packed words are
// meaningful only relative to the codec instance that produced them: they
// are an in-memory representation, never a durable one. Durable identities — checkpoint fingerprints, memo keys —
// remain hashes of canonical key bytes.

var (
	// ErrPackedCapacity reports an intern dictionary that outgrew its
	// field width. The default widths fit tens of millions of distinct
	// states — far beyond any in-RAM search — so hitting this means the
	// configuration cap was raised into external-memory territory.
	ErrPackedCapacity = errors.New("model: packed codec dictionary full")
	// ErrPackedRange reports packed words that do not decode under the
	// codec: wrong word count, an index beyond the dictionary, or set
	// padding bits. It is the typed "corrupt input" answer the fuzzers
	// demand in place of a panic.
	ErrPackedRange = errors.New("model: packed words out of range")
)

// Default field widths. A state field must hold an index for every
// distinct process state discovered during one search, a value field one
// for every distinct register value; both are generous overestimates
// (distinct states ≤ processes × configurations) while keeping n ≤ 5
// configurations inside four 64-bit words.
const (
	defaultStateBits = 25
	defaultRegBits   = 22
)

// Intern-table geometry. Entries live in chunks behind atomic pointers so
// concurrent readers never observe a reallocating slice; chunk k holds
// internFirst<<k entries, so a table costs memory in proportion to what it
// holds and a short search never allocates a directory sized for the field
// width. key→index maps are sharded to keep worker contention off a single
// lock.
const (
	internShards    = 32
	internFirstBits = 8
	// internChunks covers the largest field width, 32 bits:
	// internFirst·(2^25 − 1) ≥ 2^32.
	internChunks = 25
)

// internShard is one stripe of the key→index map, with the scratch that
// builds a new entry's key template under its lock.
type internShard struct {
	mu   sync.RWMutex
	idx  map[string]uint32
	tmpl Template
	buf  []byte
	_    [24]byte // keep neighbouring locks off one cache line
}

// internEntry is one interned value and its key template: the packed
// template (see Template.pack) when the codec has a Canon, "" when that
// Canon refused the value or the template does not pack, and the exact key
// bytes when the codec has none.
type internEntry[T any] struct {
	v    T
	tmpl string
}

// internTable is a concurrent append-only dictionary: distinct keys get
// dense indices in discovery order, and index→entry lookups are two array
// reads with no lock. limit is the field-width capacity; template, when
// non-nil, writes a new entry's key template.
type internTable[T any] struct {
	limit    uint32
	next     atomic.Uint32
	chunks   [internChunks]atomic.Pointer[[]internEntry[T]]
	shards   [internShards]internShard
	template func(t *Template, v T) bool
}

func newInternTable[T any](bits int, template func(t *Template, v T) bool) *internTable[T] {
	t := &internTable[T]{limit: uint32(1) << bits, template: template}
	for i := range t.shards {
		t.shards[i].idx = make(map[string]uint32)
	}
	return t
}

// shardIndex hashes a key to its map stripe (FNV-1a over the key bytes).
func shardIndex[K ~string | ~[]byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h % internShards
}

// chunkOf locates index id: chunk k holds indices
// [internFirst·(2^k − 1), internFirst·(2^(k+1) − 1)).
func chunkOf(id uint32) (int, uint64) {
	k := bits.Len64(uint64(id)>>internFirstBits+1) - 1
	return k, uint64(id) - (uint64(1)<<k-1)<<internFirstBits
}

// store places e at index id. Chunks are published with a CAS so two
// shards allocating the same chunk concurrently agree on one.
func (t *internTable[T]) store(id uint32, e internEntry[T]) {
	k, off := chunkOf(id)
	ch := t.chunks[k].Load()
	if ch == nil {
		fresh := make([]internEntry[T], 1<<(internFirstBits+k))
		if t.chunks[k].CompareAndSwap(nil, &fresh) {
			ch = &fresh
		} else {
			ch = t.chunks[k].Load()
		}
	}
	(*ch)[off] = e
}

// entry returns the entry at index id, or nil for an index never interned
// — the typed-error path of Unpack.
func (t *internTable[T]) entry(id uint32) *internEntry[T] {
	if id >= t.next.Load() {
		return nil
	}
	k, off := chunkOf(id)
	ch := t.chunks[k].Load()
	if ch == nil {
		return nil
	}
	return &(*ch)[off]
}

// at returns the value at index id; ok is false for indices never
// interned.
func (t *internTable[T]) at(id uint32) (v T, ok bool) {
	if e := t.entry(id); e != nil {
		return e.v, true
	}
	return v, false
}

// internBytes returns the index of key, interning v under a copy of key
// on first sight. The []byte key form lets callers probe with reused
// scratch; the map lookup compiles without a string allocation.
func (t *internTable[T]) internBytes(key []byte, v T) (uint32, error) {
	sh := &t.shards[shardIndex(key)]
	sh.mu.RLock()
	id, ok := sh.idx[string(key)]
	sh.mu.RUnlock()
	if ok {
		return id, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.idx[string(key)]; ok {
		return id, nil
	}
	return t.insert(sh, string(key), v)
}

// internString is internBytes for callers that already hold a string key.
func (t *internTable[T]) internString(key string, v T) (uint32, error) {
	sh := &t.shards[shardIndex(key)]
	sh.mu.RLock()
	id, ok := sh.idx[key]
	sh.mu.RUnlock()
	if ok {
		return id, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.idx[key]; ok {
		return id, nil
	}
	return t.insert(sh, key, v)
}

// insert assigns key the next index and stores v with its template. The
// caller holds sh.mu and has checked key is absent.
func (t *internTable[T]) insert(sh *internShard, key string, v T) (uint32, error) {
	id := t.next.Add(1) - 1
	if id >= t.limit {
		return 0, ErrPackedCapacity
	}
	e := internEntry[T]{v: v, tmpl: key}
	if t.template != nil {
		e.tmpl = ""
		sh.tmpl.Reset()
		if t.template(&sh.tmpl, v) {
			var ok bool
			if sh.buf, ok = sh.tmpl.pack(sh.buf[:0]); ok {
				e.tmpl = string(sh.buf)
			}
		}
	}
	t.store(id, e)
	sh.idx[key] = id
	return id, nil
}

// PackedCodec packs configurations of one protocol instance into
// fixed-width []uint64 records, and renders a record's key from its
// dictionary ids' templates. Safe for concurrent use: the dictionaries
// are sharded, a template is written once, when its id is interned, and
// the pack/unpack/key methods touch only caller-owned words and scratch.
type PackedCodec struct {
	procs     int
	regs      int
	stateBits int
	regBits   int
	words     int

	canon  Canon
	states *internTable[State]
	vals   *internTable[Value]
	kbPool sync.Pool
}

// NewPackedCodec computes the packed layout for configurations shaped like
// template (its process and register counts) with the default field widths
// and exact keys: AppendKey renders Config.Key's bytes.
func NewPackedCodec(template Config) *PackedCodec {
	return NewCanonCodec(template, nil)
}

// NewCanonCodec is NewPackedCodec keying configurations under canon: each
// interned state and value keeps its canon template, and AppendKey renders
// canonical keys from them.
func NewCanonCodec(template Config, canon Canon) *PackedCodec {
	return newPackedCodec(template, canon, defaultStateBits, defaultRegBits)
}

// NewPackedCodecWidths is NewPackedCodec with explicit field widths (used
// by tests to exercise capacity overflow with tiny dictionaries).
func NewPackedCodecWidths(template Config, stateBits, regBits int) *PackedCodec {
	return newPackedCodec(template, nil, stateBits, regBits)
}

func newPackedCodec(template Config, canon Canon, stateBits, regBits int) *PackedCodec {
	if stateBits < 1 || stateBits > 32 || regBits < 1 || regBits > 32 {
		panic(fmt.Sprintf("model: packed field widths %d/%d outside [1,32]", stateBits, regBits))
	}
	var stateTmpl func(*Template, State) bool
	var valTmpl func(*Template, Value) bool
	if canon != nil {
		stateTmpl, valTmpl = canon.StateTemplate, canon.ValueTemplate
	}
	pc := &PackedCodec{
		procs:     template.NumProcesses(),
		regs:      template.NumRegisters(),
		stateBits: stateBits,
		regBits:   regBits,
		canon:     canon,
		states:    newInternTable(stateBits, stateTmpl),
		vals:      newInternTable(regBits, valTmpl),
	}
	pc.words = (pc.totalBits() + 63) / 64
	pc.kbPool.New = func() any { return &KeyBuilder{} }
	return pc
}

func (pc *PackedCodec) totalBits() int { return pc.procs*pc.stateBits + pc.regs*pc.regBits }

// Canon returns the canonicaliser the codec keys under (nil for exact
// keys).
func (pc *PackedCodec) Canon() Canon { return pc.canon }

// Words returns the number of uint64 words one packed configuration
// occupies — the stride of every arena built over this codec.
func (pc *PackedCodec) Words() int { return pc.words }

// NumProcesses returns the process count of the layout.
func (pc *PackedCodec) NumProcesses() int { return pc.procs }

// NumRegisters returns the register count of the layout.
func (pc *PackedCodec) NumRegisters() int { return pc.regs }

// StateBits returns the width of one per-process state field.
func (pc *PackedCodec) StateBits() int { return pc.stateBits }

// RegBits returns the width of one per-register value field.
func (pc *PackedCodec) RegBits() int { return pc.regBits }

func (pc *PackedCodec) stateOff(pid int) int { return pid * pc.stateBits }
func (pc *PackedCodec) regOff(r int) int     { return pc.procs*pc.stateBits + r*pc.regBits }

// DictStats reports the interned dictionary sizes and the largest key-map
// shard of each table — the numbers behind the codec_* gauges. Totals are
// single atomic loads; the shard maxima take one RLock per shard, so this
// is a sampling call (explore reads it once per BFS level), not a hot-path
// one. Safe for concurrent use with interning.
func (pc *PackedCodec) DictStats() (states, vals, maxStateShard, maxValShard int) {
	states = int(pc.states.next.Load())
	vals = int(pc.vals.next.Load())
	maxStateShard = maxShardLen(pc.states)
	maxValShard = maxShardLen(pc.vals)
	return
}

// maxShardLen returns the key count of the fullest map stripe.
func maxShardLen[T any](t *internTable[T]) int {
	max := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		if n := len(sh.idx); n > max {
			max = n
		}
		sh.mu.RUnlock()
	}
	return max
}

// getField extracts the bits-wide field at bit offset off.
func getField(words []uint64, off, bits int) uint64 {
	w, b := off>>6, uint(off&63)
	v := words[w] >> b
	if b+uint(bits) > 64 {
		v |= words[w+1] << (64 - b)
	}
	return v & (1<<uint(bits) - 1)
}

// setField stores val into the bits-wide field at bit offset off.
func setField(words []uint64, off, bits int, val uint64) {
	mask := uint64(1)<<uint(bits) - 1
	w, b := off>>6, uint(off&63)
	words[w] = words[w]&^(mask<<b) | val<<b
	if b+uint(bits) > 64 {
		rem := uint(bits) - (64 - b)
		hiMask := uint64(1)<<rem - 1
		words[w+1] = words[w+1]&^hiMask | val>>(64-b)
	}
}

// InternState returns the dictionary index of s, interning it by its exact
// key bytes on first sight. kb is reusable scratch for streaming the key
// (nil takes one from an internal pool); the exploration workers pass
// their own to keep the hot path allocation-free.
func (pc *PackedCodec) InternState(kb *KeyBuilder, s State) (uint32, error) {
	if kb == nil {
		kb = pc.kbPool.Get().(*KeyBuilder)
		defer pc.kbPool.Put(kb)
	}
	kb.Reset()
	if sw, ok := s.(StateKeyWriter); ok {
		sw.KeyTo(kb)
	} else {
		_, _ = kb.WriteString(s.Key())
	}
	return pc.states.internBytes(kb.Bytes(), s)
}

// InternValue returns the dictionary index of v.
func (pc *PackedCodec) InternValue(v Value) (uint32, error) {
	return pc.vals.internString(string(v), v)
}

// PackTo packs c into dst, which must be a Words()-long record; dst is
// overwritten entirely. Errors only when a dictionary outgrows its field
// width (ErrPackedCapacity) or c's shape disagrees with the layout.
func (pc *PackedCodec) PackTo(dst []uint64, c Config) error {
	if len(c.states) != pc.procs || len(c.regs) != pc.regs {
		return fmt.Errorf("%w: config %d/%d does not fit layout %d/%d",
			ErrPackedRange, len(c.states), len(c.regs), pc.procs, pc.regs)
	}
	if len(dst) != pc.words {
		return fmt.Errorf("%w: destination %d words, layout needs %d", ErrPackedRange, len(dst), pc.words)
	}
	for i := range dst {
		dst[i] = 0
	}
	kb := pc.kbPool.Get().(*KeyBuilder)
	defer pc.kbPool.Put(kb)
	for pid, s := range c.states {
		id, err := pc.InternState(kb, s)
		if err != nil {
			return err
		}
		setField(dst, pc.stateOff(pid), pc.stateBits, uint64(id))
	}
	for r, v := range c.regs {
		id, err := pc.vals.internString(string(v), v)
		if err != nil {
			return err
		}
		setField(dst, pc.regOff(r), pc.regBits, uint64(id))
	}
	return nil
}

// Pack packs c into a fresh record.
func (pc *PackedCodec) Pack(c Config) ([]uint64, error) {
	dst := make([]uint64, pc.words)
	if err := pc.PackTo(dst, c); err != nil {
		return nil, err
	}
	return dst, nil
}

// UnpackInto decodes words into the provided backing slices (each at
// least layout-sized) and returns a Config aliasing them. The typed error
// is ErrPackedRange for any record this codec never produced: wrong word
// count, an index beyond the dictionaries, or set padding bits — never a
// panic, whatever the words (FuzzPackedCodecRoundTrip).
func (pc *PackedCodec) UnpackInto(words []uint64, states []State, regs []Value) (Config, error) {
	if err := pc.checkWords(words); err != nil {
		return Config{}, err
	}
	if len(states) < pc.procs || len(regs) < pc.regs {
		return Config{}, fmt.Errorf("%w: backing %d/%d below layout %d/%d",
			ErrPackedRange, len(states), len(regs), pc.procs, pc.regs)
	}
	states = states[:pc.procs]
	regs = regs[:pc.regs]
	for pid := 0; pid < pc.procs; pid++ {
		id := getField(words, pc.stateOff(pid), pc.stateBits)
		s, ok := pc.states.at(uint32(id))
		if !ok {
			return Config{}, fmt.Errorf("%w: state index %d not interned", ErrPackedRange, id)
		}
		states[pid] = s
	}
	for r := 0; r < pc.regs; r++ {
		id := getField(words, pc.regOff(r), pc.regBits)
		v, ok := pc.vals.at(uint32(id))
		if !ok {
			return Config{}, fmt.Errorf("%w: value index %d not interned", ErrPackedRange, id)
		}
		regs[r] = v
	}
	return Config{states: states, regs: regs}, nil
}

// checkWords rejects a record of the wrong length or with padding bits
// set.
func (pc *PackedCodec) checkWords(words []uint64) error {
	if len(words) != pc.words {
		return fmt.Errorf("%w: %d words, layout needs %d", ErrPackedRange, len(words), pc.words)
	}
	if pad := uint(pc.totalBits() & 63); pad != 0 && words[pc.words-1]>>pad != 0 {
		return fmt.Errorf("%w: padding bits set", ErrPackedRange)
	}
	return nil
}

// AppendKey appends the key of the packed record words under the codec's
// canonicaliser to dst: exactly the bytes AppendKey(dst, pc.Canon(),
// Unpack(words), ks) appends, read from the dictionary ids' templates
// without unpacking. The rounds a configuration holds are the OR of its
// templates' round bitsets, renumbered once, and each template is copied
// with its renumbered rounds written into its cuts. A slot without a
// packed template takes the Config path. It accepts exactly the records
// UnpackInto accepts and answers ErrPackedRange otherwise.
func (pc *PackedCodec) AppendKey(dst []byte, words []uint64, ks *KeyScratch) ([]byte, error) {
	if err := pc.checkWords(words); err != nil {
		return dst, err
	}
	tmpls := ks.tmpls[:0]
	for pid := 0; pid < pc.procs; pid++ {
		id := getField(words, pc.stateOff(pid), pc.stateBits)
		e := pc.states.entry(uint32(id))
		if e == nil {
			return dst, fmt.Errorf("%w: state index %d not interned", ErrPackedRange, id)
		}
		tmpls = append(tmpls, e.tmpl)
	}
	for r := 0; r < pc.regs; r++ {
		id := getField(words, pc.regOff(r), pc.regBits)
		e := pc.vals.entry(uint32(id))
		if e == nil {
			return dst, fmt.Errorf("%w: value index %d not interned", ErrPackedRange, id)
		}
		tmpls = append(tmpls, e.tmpl)
	}
	ks.tmpls = tmpls
	if pc.canon == nil {
		for i, tm := range tmpls {
			if i == pc.procs {
				dst = append(dst, keySepSection)
			}
			dst = append(append(dst, tm...), keySepField)
		}
		if pc.regs == 0 {
			dst = append(dst, keySepSection)
		}
		return dst, nil
	}
	var present uint64
	for _, tm := range tmpls {
		if tm == "" {
			return pc.appendUnpacked(dst, words, ks)
		}
		present |= packedRounds(tm)
	}
	ks.rounds = ks.rounds[:0]
	for m := present; m != 0; m &= m - 1 {
		ks.rounds = append(ks.rounds, bits.TrailingZeros64(m))
	}
	ks.renumber(pc.canon)
	for i, r := range ks.rounds {
		ks.table[r] = ks.to[i]
	}
	for i, tm := range tmpls {
		if i == pc.procs {
			dst = append(dst, keySepSection)
		}
		dst = append(appendPacked(dst, tm, &ks.table), keySepField)
	}
	if pc.regs == 0 {
		dst = append(dst, keySepSection)
	}
	return dst, nil
}

// appendUnpacked is AppendKey's Config path, for a record holding a slot
// without a packed template.
func (pc *PackedCodec) appendUnpacked(dst []byte, words []uint64, ks *KeyScratch) ([]byte, error) {
	if len(ks.states) < pc.procs || len(ks.regs) < pc.regs {
		ks.states, ks.regs = make([]State, pc.procs), make([]Value, pc.regs)
	}
	c, err := pc.UnpackInto(words, ks.states, ks.regs)
	if err != nil {
		return dst, err
	}
	return AppendKey(dst, pc.canon, c, ks), nil
}

// Unpack decodes words into a freshly allocated Config.
func (pc *PackedCodec) Unpack(words []uint64) (Config, error) {
	return pc.UnpackInto(words, make([]State, pc.procs), make([]Value, pc.regs))
}

// Move packing: the exploration engine retains one move per visited
// configuration forever (the witness forest), so the move is packed into
// 32 bits — bit 0 flags a coin flip, bit 1 its outcome, the rest the pid.
// Only the binary outcomes of the OpCoin contract pack; anything else is a
// typed error so corrupt checkpoints fail loudly.

// PackMove encodes m into 32 bits.
func PackMove(m Move) (uint32, error) {
	if m.Pid < 0 || m.Pid >= 1<<30 {
		return 0, fmt.Errorf("%w: move pid %d", ErrPackedRange, m.Pid)
	}
	u := uint32(m.Pid) << 2
	switch m.Coin {
	case Bottom:
	case "0":
		u |= 1
	case "1":
		u |= 3
	default:
		return 0, fmt.Errorf("%w: move coin %q is not a binary outcome", ErrPackedRange, string(m.Coin))
	}
	return u, nil
}

// UnpackMove decodes a PackMove encoding.
func UnpackMove(u uint32) Move {
	m := Move{Pid: int(u >> 2)}
	if u&1 != 0 {
		if u&2 != 0 {
			m.Coin = "1"
		} else {
			m.Coin = "0"
		}
	}
	return m
}
