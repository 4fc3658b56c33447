package explore

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/model"
	"repro/internal/obs"
)

// Fingerprint is a 128-bit digest of a configuration's canonical key. The
// visited set and the valency oracle's memo tables store fingerprints
// instead of key strings: equality of fingerprints is treated as equality
// of canonical keys. A false merge therefore needs a 128-bit collision —
// for 10^8 distinct states the probability is below 10^-21, far below the
// chance of a memory error on commodity hardware, which is the standard
// this repository accepts for "exhaustive".
//
// The digest is mix128, a wyhash-style multiply-fold mix that consumes the
// key eight bytes per load instead of FNV-128a's one multiply per byte;
// the tests keep the old FNV digest as the cross-checked reference they
// hold the new hash against (DESIGN.md S22).
// Fingerprints are durable (checkpoint snapshots persist them), so
// FingerprintVersion names the active function and changes whenever it
// does.
type Fingerprint [2]uint64

// FingerprintVersion identifies the fingerprint function. Version 1 was
// FNV-128a; version 2 is mix128. Snapshots record the version of the
// fingerprints they carry, and resume refuses a mismatch: stale-hash
// fingerprints would never match live ones, silently degrading a resumed
// run to a cold start.
const FingerprintVersion = 2

// mix128 constants: the first four secrets of wyhash v4.
const (
	mixK0 = 0xa0761d6478bd642f
	mixK1 = 0xe7037ed1a0b428db
	mixK2 = 0x8ebc6af09c88c6e3
	mixK3 = 0x589965cc75374cc3
)

// mum is the multiply-fold primitive: the 128-bit product of a and b,
// folded to 64 bits by xor of its halves.
func mum(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// mix128 digests p into a 128-bit fingerprint. Two 64-bit mum-chains with
// distinct secrets each consume the full input stream sixteen bytes per
// round (word-at-a-time loads), then two cross-feeding finalisation rounds
// couple the lanes. Short and ragged tails are read as overlapping or
// byte-accumulated words. Input here is canonical protocol keys — not
// adversarial — and the collision standard is the 128-bit one documented
// on Fingerprint; TestMix128Distinctness and the zoo differential tests
// hold it against the FNV reference on real key populations.
func mix128(p []byte) Fingerprint {
	n := uint64(len(p))
	h1 := mixK0 ^ n*mixK2
	h2 := mixK1 ^ n*mixK3
	var a, b uint64
	switch {
	case len(p) > 16:
		q := p
		for len(q) > 16 {
			a = binary.LittleEndian.Uint64(q)
			b = binary.LittleEndian.Uint64(q[8:])
			h1 = mum(a^mixK2, b^h1)
			h2 = mum(a^h2, b^mixK3)
			q = q[16:]
		}
		// Final block: the last sixteen bytes, overlapping the loop's
		// tail so every byte is covered without a branchy remainder.
		t := p[len(p)-16:]
		a = binary.LittleEndian.Uint64(t)
		b = binary.LittleEndian.Uint64(t[8:])
	case len(p) >= 8:
		a = binary.LittleEndian.Uint64(p)
		b = binary.LittleEndian.Uint64(p[len(p)-8:])
	case len(p) > 0:
		for i := len(p) - 1; i >= 0; i-- {
			a = a<<8 | uint64(p[i])
		}
	}
	h1 = mum(a^mixK2, b^h1)
	h2 = mum(a^h2, b^mixK3)
	h1 = mum(h1^mixK3, h2^mixK1)
	h2 = mum(h2^mixK0, h1^mixK2)
	return Fingerprint{h1, h2}
}

// mixWords digests a packed record (a []uint64 instance-local encoding)
// with the same mixing rounds as mix128. It keys the raw-identity
// / pre-filter in the explorer: packed records are exact encodings, so equal
// words mean equal configurations, and a second, cheaper hash over the
// words lets the hot path skip the canonical key stream for the (majority
// of) transitions that recreate an already-seen record verbatim. The
// resulting fingerprints live in their own cache (rawCache) — they use
// dictionary ids, which are instance-scoped, so they are never persisted
// or compared with canonical fingerprints.
func mixWords(ws []uint64) Fingerprint {
	n := uint64(len(ws))
	h1 := mixK0 ^ n*mixK2
	h2 := mixK1 ^ n*mixK3
	i := 0
	for ; i+1 < len(ws); i += 2 {
		h1 = mum(ws[i]^mixK2, ws[i+1]^h1)
		h2 = mum(ws[i]^h2, ws[i+1]^mixK3)
	}
	if i < len(ws) {
		a := ws[i]
		h1 = mum(a^mixK2, h1)
		h2 = mum(a^h2, mixK3)
	}
	h1 = mum(h1^mixK3, h2^mixK1)
	h2 = mum(h2^mixK0, h1^mixK2)
	return Fingerprint{h1, h2}
}

// KeyFingerprint digests a configuration key: the function every
// Fingerprint in this repository is, applied to the bytes model.AppendKey
// renders.
func KeyFingerprint(key []byte) Fingerprint { return mix128(key) }

// hasher is per-worker scratch for rendering a configuration's key into a
// reused buffer and digesting it. The key scratch is allocated on first
// use, so building an oracle stays as cheap as before it existed. Not safe
// for concurrent use.
type hasher struct {
	ks  *model.KeyScratch
	key []byte
}

// scratch returns the key scratch, allocating it on first use.
func (hs *hasher) scratch() *model.KeyScratch {
	if hs.ks == nil {
		hs.ks = new(model.KeyScratch)
	}
	return hs.ks
}

// fingerprint digests c's key under opts.Canon.
func (hs *hasher) fingerprint(opts *Options, c model.Config) Fingerprint {
	hs.key = model.AppendKey(hs.key[:0], opts.Canon, c, hs.scratch())
	return mix128(hs.key)
}

var hasherPool = sync.Pool{New: func() any { return new(hasher) }}

// Fingerprint digests c's canonical key under o, using pooled scratch. It
// is the key the valency oracle memoises on; it matches what the engine's
// visited set stores for the same options.
func (o Options) Fingerprint(c model.Config) Fingerprint {
	hs := hasherPool.Get().(*hasher)
	fp := hs.fingerprint(&o, c)
	hasherPool.Put(hs)
	return fp
}

// Fingerprinter is reusable fingerprinting scratch bound to one option
// set: Options.Fingerprint's pool round-trip and options copy were
// measurable at one call per memoised query, so single-goroutine callers
// (the valency oracle) hold one of these instead. Not safe for concurrent
// use.
type Fingerprinter struct {
	opts Options
	hs   hasher
}

// NewFingerprinter returns a Fingerprinter computing exactly the
// fingerprints o.Fingerprint would.
func (o Options) NewFingerprinter() *Fingerprinter {
	return &Fingerprinter{opts: o}
}

// Fingerprint digests c's canonical key.
func (f *Fingerprinter) Fingerprint(c model.Config) Fingerprint {
	return f.hs.fingerprint(&f.opts, c)
}

// fpShards is the stripe count of the visited set. 64 stripes keep
// contention negligible for any plausible worker count while the
// per-stripe padding stays cheap.
const fpShards = 64

// cacheLine is the padding unit of the striped sets: each stripe fills
// whole cache lines, and the stripe arrays start on a line boundary, so
// neighbouring stripes' mutexes do not false-share under contention
// (TestStripeLayout holds the layout).
const cacheLine = 64

// fpShard is one stripe: an open-addressed, linearly probed table of
// fingerprints. Fingerprints are already uniform 128-bit hashes, so slots
// are probed straight from the fingerprint bits — no secondary hashing —
// and membership is a lock, one or two cache lines, an unlock. The
// all-zero fingerprint (probability 2^-128, but cheap to be exact about)
// is tracked out of band so the zero slot can mean "empty". A masked
// set's shards keep each fingerprint's candidate mask in masks, parallel
// to tbl; an unmasked set allocates none.
type fpShard struct {
	fpStripe
	_ [cacheLine - unsafe.Sizeof(fpStripe{})%cacheLine]byte
}

// fpStripe is fpShard's content, unpadded.
type fpStripe struct {
	mu       sync.Mutex
	tbl      []Fingerprint
	masks    []uint64
	n        int
	zero     bool
	zeroMask uint64
}

// add inserts fp, ORing mask into its candidate mask when the set is
// masked, and returns the mask fp held before (every bit when an unmasked
// set held it) and whether fp was absent. The caller holds sh.mu. The zero
// fingerprint keeps a mask word in every set, so its held mask is exact.
func (sh *fpShard) add(fp Fingerprint, mask uint64, masked bool) (uint64, bool) {
	if fp == (Fingerprint{}) {
		held, fresh := sh.zeroMask, !sh.zero
		if fresh {
			sh.zero = true
			sh.n++
		}
		sh.zeroMask |= mask
		return held, fresh
	}
	if 4*(sh.n+1) > 3*len(sh.tbl) {
		sh.grow(masked)
	}
	wrap := uint64(len(sh.tbl) - 1)
	// fp[0]'s low bits picked the shard; probe from fp[1] so the slot is
	// independent of the stripe.
	for i := fp[1] & wrap; ; i = (i + 1) & wrap {
		switch sh.tbl[i] {
		case fp:
			if !masked {
				return ^uint64(0), false
			}
			held := sh.masks[i]
			sh.masks[i] |= mask
			return held, false
		case Fingerprint{}:
			sh.tbl[i] = fp
			if masked {
				sh.masks[i] = mask
			}
			sh.n++
			return 0, true
		}
	}
}

// fpQuadrupleBelow is the stripe size, in slots, up to which grow
// quadruples the table; from it on grow doubles.
const fpQuadrupleBelow = 4096

// grow enlarges the shard table (from a 128-slot floor) and reinserts. A
// small table quadruples: visited sets only ever grow, and the many tiny
// searches then rehash seldom. From fpQuadrupleBelow slots on it doubles,
// so a large set's load stays between 0.375 and 0.75 instead of falling
// to 0.19 after a step: the live table is at most twice the size its
// fingerprints need rather than four times. The price is rehash work: a
// doubling table re-moves each fingerprint one to two times over its
// life, a quadrupling one a third of a time to once.
func (sh *fpShard) grow(masked bool) {
	old, oldMasks := sh.tbl, sh.masks
	size := 2 * len(old)
	if len(old) < fpQuadrupleBelow {
		size = 4 * len(old)
	}
	if size < 128 {
		size = 128
	}
	sh.tbl = make([]Fingerprint, size)
	if masked {
		sh.masks = make([]uint64, size)
	}
	mask := uint64(size - 1)
	for j, fp := range old {
		if fp == (Fingerprint{}) {
			continue
		}
		i := fp[1] & mask
		for sh.tbl[i] != (Fingerprint{}) {
			i = (i + 1) & mask
		}
		sh.tbl[i] = fp
		if masked {
			sh.masks[i] = oldMasks[j]
		}
	}
}

// FPSet is the sharded lock-striped visited set raced by the expansion
// workers. Add is linearisable per fingerprint: exactly one caller wins a
// given fingerprint, however many workers race it. A set built with
// NewLocalFPSet skips the stripe mutexes — sound only while a single
// goroutine owns every Add, which Reach guarantees when Options.Workers
// resolves to 1 (the pool is never started, so the coordinator is the only
// caller), and which a dist shard worker's per-slice visited set is. A
// masked set, ReachSets' visited set over several process sets, also keeps
// a candidate mask per fingerprint.
type FPSet struct {
	fpSetHeader
	_      [cacheLine - unsafe.Sizeof(fpSetHeader{})%cacheLine]byte
	shards [fpShards]fpShard
}

// fpSetHeader is FPSet's fields before the stripes.
type fpSetHeader struct {
	count  atomic.Int64
	locked bool
	masked bool
}

func newFPSet() *FPSet {
	s := &FPSet{}
	s.locked = true
	return s
}

// NewLocalFPSet returns an empty FPSet for a single goroutine's use.
func NewLocalFPSet() *FPSet {
	return &FPSet{}
}

// Add inserts fp and reports whether it was absent (i.e. the caller is the
// unique winner for this fingerprint).
func (s *FPSet) Add(fp Fingerprint) bool {
	_, fresh := s.add(fp, ^uint64(0))
	return fresh
}

// add inserts fp with the candidate bits mask and returns the mask fp held
// before (every bit in an unmasked set) and whether it was absent.
func (s *FPSet) add(fp Fingerprint, mask uint64) (uint64, bool) {
	sh := &s.shards[fp[0]&(fpShards-1)]
	if s.locked {
		sh.mu.Lock()
	}
	held, fresh := sh.add(fp, mask, s.masked)
	if s.locked {
		sh.mu.Unlock()
	}
	if fresh {
		s.count.Add(1)
	}
	return held, fresh
}

// rawCacheStart is a raw-cache stripe's first table size, in slots.
const rawCacheStart = 32

// rawCacheMax is the largest table a raw-cache stripe grows to, in slots:
// a power of two, so 64 stripes hold at most 4 MB. A variable so the
// differential tests can force eviction onto tiny spaces.
var rawCacheMax = 4096

// rawCache is Reach's raw-duplicate pre-filter: a bounded, lossy set of
// mixWords digests of packed records, striped like FPSet. Each stripe is a
// direct-mapped table that starts at rawCacheStart slots and quadruples,
// whenever more than half its slots are filled, up to rawCacheMax; from
// then on an insert that lands on an occupied slot overwrites it,
// forgetting the older record. A hit still needs the full 128-bit digest,
// so it is as exact as a visited-set hit; a forgotten record costs only
// the canonical fingerprint that the visited set then rejects. The zero
// digest marks an empty slot and is never recorded, so it always misses.
// An unlocked cache skips the stripe mutexes, which is sound only while
// one goroutine owns it, as for NewLocalFPSet.
type rawCache struct {
	stripes [fpShards]rawShard
	locked  bool
}

// rawShard is one raw-cache stripe, padded like fpShard.
type rawShard struct {
	rawStripe
	_ [cacheLine - unsafe.Sizeof(rawStripe{})%cacheLine]byte
}

// rawStripe is rawShard's content, unpadded: the table and its count of
// filled slots.
type rawStripe struct {
	mu  sync.Mutex
	tbl []Fingerprint
	n   int
}

// seen reports whether fp is recorded, and records it if not.
func (c *rawCache) seen(fp Fingerprint) bool {
	if fp == (Fingerprint{}) {
		return false
	}
	sh := &c.stripes[fp[0]&(fpShards-1)]
	if c.locked {
		sh.mu.Lock()
	}
	hit := sh.seen(fp)
	if c.locked {
		sh.mu.Unlock()
	}
	return hit
}

// seen is rawCache.seen on one stripe; the caller holds sh.mu. Like
// fpShard, it indexes by fp[1], since fp[0]'s low bits picked the stripe.
func (sh *rawStripe) seen(fp Fingerprint) bool {
	if sh.tbl == nil {
		sh.tbl = make([]Fingerprint, min(rawCacheStart, rawCacheMax))
	}
	i := fp[1] & uint64(len(sh.tbl)-1)
	switch sh.tbl[i] {
	case fp:
		return true
	case Fingerprint{}:
		sh.n++
	}
	sh.tbl[i] = fp
	if 2*sh.n > len(sh.tbl) && len(sh.tbl) < rawCacheMax {
		sh.grow()
	}
	return false
}

// grow quadruples the stripe's table, up to rawCacheMax, like a small
// fpShard: on its way to rawCacheMax a stripe then allocates about 1.7
// times its final table rather than twice. Entries from distinct old slots
// land in distinct new ones, so growing forgets nothing.
func (sh *rawStripe) grow() {
	old := sh.tbl
	sh.tbl = make([]Fingerprint, min(4*len(old), rawCacheMax))
	mask := uint64(len(sh.tbl) - 1)
	for _, fp := range old {
		if fp != (Fingerprint{}) {
			sh.tbl[fp[1]&mask] = fp
		}
	}
}

// Len returns the number of distinct fingerprints inserted so far. It may
// be momentarily stale while workers race Adds; the engine only uses it as
// a soft overflow brake, never for exact accounting.
func (s *FPSet) Len() int { return int(s.count.Load()) }

// stats samples the set for the flight recorder: total fingerprints and
// table slots (the load factor is their ratio), and — when h is non-nil —
// up to maxPerShard occupied slots per shard observed into h as probe
// displacements ((slot - home) & mask, the linear-probe walk length a
// lookup for that fingerprint pays). Sampling is bounded so a level-edge
// call costs O(shards × maxPerShard) whatever the set's size. Called at
// level boundaries, when no worker holds a shard; the stripe locks are
// still taken (when the set is a locking one) for exactness.
func (s *FPSet) stats(maxPerShard int, h *obs.Histogram) (n, slots int) {
	for i := range s.shards {
		sh := &s.shards[i]
		if s.locked {
			sh.mu.Lock()
		}
		n += sh.n
		slots += len(sh.tbl)
		if h != nil && len(sh.tbl) > 0 {
			mask := uint64(len(sh.tbl) - 1)
			sampled := 0
			for j := uint64(0); j <= mask && sampled < maxPerShard; j++ {
				fp := sh.tbl[j]
				if fp == (Fingerprint{}) {
					continue
				}
				h.Observe(int64((j - fp[1]&mask) & mask))
				sampled++
			}
		}
		if s.locked {
			sh.mu.Unlock()
		}
	}
	return n, slots
}

// Dump returns every fingerprint in the set, in unspecified order (the set
// is unordered, so a caller that persists them sorts first or accepts
// run-to-run byte differences). Call it only while no goroutine is adding.
func (s *FPSet) Dump() []Fingerprint {
	out := make([]Fingerprint, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.zero {
			out = append(out, Fingerprint{})
		}
		for _, fp := range sh.tbl {
			if fp != (Fingerprint{}) {
				out = append(out, fp)
			}
		}
		sh.mu.Unlock()
	}
	return out
}
