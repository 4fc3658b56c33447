package explore

import (
	"context"
	"sync"

	"repro/internal/model"
)

// The level-synchronous engine behind Reach. Each BFS level is split into
// contiguous chunks; workers expand chunks concurrently, racing the shared
// fingerprint set for deduplication and recording the fresh children they
// won in per-chunk slots. The coordinator then merges the chunks in index
// order, so IDs, visit order and cap behaviour are independent of the
// worker count; only the choice of representative among same-level
// duplicates (and hence the exact witness path) can vary between runs,
// which is safe because equal fingerprints mean equal canonical keys. A
// search over several process sets expands each parent alone on the
// calling goroutine instead (see ReachSets).
//
// Every transition goes through an Expander: it steps the parent's packed
// record in per-goroutine scratch (model.PackedStepper), so the
// per-transition cost is a memoised step and a fingerprint rendered from
// the child's dictionary ids' key templates, with no per-child slice
// allocations; a child that wins the visited set is kept as its record.

// chunksPerWorker over-partitions each level so a slow chunk does not
// leave the rest of the pool idle.
const chunksPerWorker = 4

// cancelPollStride is how many transitions a worker expands between polls
// of the context and the soft configuration cap.
const cancelPollStride = 512

// minChunkSize floors the per-chunk work so tiny levels do not drown in
// dispatch overhead (a variable so the equivalence tests can force many
// chunks onto small spaces).
var minChunkSize = 64

// childSlot records one child produced by a worker that the visited set
// had not held with all of its mask bits, pending the coordinator's
// deterministic merge. fresh marks a first visit of the configuration. via
// is the connecting move in its model.PackMove encoding — the form the
// node forest retains.
type childSlot struct {
	via    uint32
	parent int32
	mask   uint64
	fresh  bool
}

// chunk is one contiguous slice [lo,hi) of the level being expanded, plus
// the expansion output. Slot and record buffers persist across levels to
// keep the steady state allocation-free. words holds the packed record of
// slots[i] at [i*stride, (i+1)*stride).
type chunk struct {
	lo, hi   int
	slots    []childSlot
	words    []uint64
	rec      []uint64 // a masked child's record and mask, the rawSeen key
	dupSteps int
	err      error
	// Per-chunk instrumentation deltas, folded into per-level metrics by
	// the coordinator after levelWG.Wait (so they need no atomics): rawHits
	// counts transitions screened out by the rawSeen pre-filter (a subset
	// of dupSteps), stepHits/stepMisses the stepper memo outcomes.
	rawHits    int
	stepHits   uint64
	stepMisses uint64
}

// Expander is the exploration kernel every BFS in this repository steps
// through: Reach's workers and the shard workers of internal/dist. It is
// per-goroutine scratch — a PackedStepper with its memos, the record and
// move buffers, and key-rendering scratch — over a PackedCodec that any
// number of Expanders may share. A child is fingerprinted straight from its
// dictionary ids: the codec keeps one key template per interned state and
// value, so the key is the templates with their rounds renumbered, and a
// child is unpacked only when a caller asks for its configuration. Records
// are PackedCodec records; the slices the methods return alias the scratch
// and stay valid only until the next call of the same method. Not safe for
// concurrent use.
type Expander struct {
	codec   *model.PackedCodec
	stepper *model.PackedStepper
	parent  []uint64
	child   []uint64
	moves   []model.Move
	ustates []model.State
	uregs   []model.Value
	hs      hasher
}

// NewExpander returns an Expander over codec that fingerprints under
// opts.Canon. The codec must key under the same canonicaliser
// (model.NewCanonCodec(root, opts.Canon)); a mismatch panics, since the
// fingerprints would silently disagree with Options.Fingerprint.
func NewExpander(codec *model.PackedCodec, opts Options) *Expander {
	if codec.Canon() != opts.Canon {
		panic("explore: codec and options canonicalise differently")
	}
	return &Expander{
		codec:   codec,
		stepper: codec.NewStepper(),
		parent:  make([]uint64, codec.Words()),
		child:   make([]uint64, codec.Words()),
		ustates: make([]model.State, codec.NumProcesses()),
		uregs:   make([]model.Value, codec.NumRegisters()),
	}
}

// Pack packs c into the Expander's parent record and returns it. Its only
// error is a dictionary outgrowing its field width (model.ErrPackedCapacity).
func (x *Expander) Pack(c model.Config) ([]uint64, error) {
	if err := x.codec.PackTo(x.parent, c); err != nil {
		return nil, err
	}
	return x.parent, nil
}

// Moves lists the moves of the processes in p at record rec in the order
// the package-level Moves lists them: pid order, a decided process
// contributing none and a coin-poised one its "0" outcome before its "1".
func (x *Expander) Moves(rec []uint64, p []int) []model.Move {
	x.moves = x.moves[:0]
	for _, pid := range p {
		switch kind, _ := x.stepper.Op(x.codec.StateID(rec, pid)); kind {
		case model.OpDecide:
		case model.OpCoin:
			x.moves = append(x.moves, model.Move{Pid: pid, Coin: "0"}, model.Move{Pid: pid, Coin: "1"})
		default:
			x.moves = append(x.moves, model.Move{Pid: pid})
		}
	}
	return x.moves
}

// Step returns the child record of rec under move m, one of rec's Moves.
// rec must not be a record Step returned.
func (x *Expander) Step(rec []uint64, m model.Move) ([]uint64, error) {
	if err := x.stepper.StepPacked(x.child, rec, m.Pid, m.Coin); err != nil {
		return nil, err
	}
	return x.child, nil
}

// Fingerprint digests the key of record rec, rendered from its dictionary
// ids' templates (model.PackedCodec.AppendKey). It equals
// Options.Fingerprint of the unpacked configuration.
func (x *Expander) Fingerprint(rec []uint64) (Fingerprint, error) {
	key, err := x.codec.AppendKey(x.hs.key[:0], rec, x.hs.scratch())
	x.hs.key = key
	if err != nil {
		return Fingerprint{}, err
	}
	return mix128(key), nil
}

// Unpack decodes rec into the Expander's scratch. The Config aliases it
// until the next Unpack.
func (x *Expander) Unpack(rec []uint64) (model.Config, error) {
	return x.codec.UnpackInto(rec, x.ustates, x.uregs)
}

// search carries the state of one Reach call across levels.
type search struct {
	ctx  context.Context
	opts Options
	p    []int
	// allowed[pid] holds the process sets containing pid and open the sets
	// the visit callback has not closed; a child's mask is its parent's
	// ANDed with both. masked marks a search over several sets, whose
	// records carry the mask as one extra word and which never starts the
	// worker pool.
	allowed    []uint64
	open       uint64
	masked     bool
	maxConfigs int
	visited    *FPSet
	// rawSeen pre-filters packed transitions by the hash of the packed
	// record itself, skipping the canonical key stream for transitions that
	// reproduce a recently produced record verbatim. It is a bounded, lossy
	// cache over instance-scoped dictionary ids: a record it has forgotten
	// is fingerprinted and rejected by visited, so only the pre-filter's
	// hit count depends on what it keeps. It is never mixed with visited.
	rawSeen *rawCache
	x       *Expander     // coordinator's own kernel, for inline expansion
	metrics searchMetrics // flight-recorder instruments, resolved once per Reach

	// codec is the packed-configuration dictionary shared by all workers;
	// stride is codec.Words(), plus one for a masked search's mask word.
	codec  *model.PackedCodec
	stride int

	level  []levelEntry // the level currently being expanded (read-only to workers)
	chunks []chunk

	workCh  chan *chunk
	levelWG sync.WaitGroup
	wg      sync.WaitGroup
	started bool
}

// expandLevel expands every entry of level and returns the populated
// chunks in their deterministic index order. Small levels, Workers: 1 and
// masked searches are expanded inline on the calling goroutine; larger
// ones fan out to the lazily started worker pool.
func (s *search) expandLevel(level []levelEntry) []chunk {
	s.level = level
	workers := s.opts.workers()
	if s.masked || workers <= 1 || len(level) < parallelThreshold {
		s.ensureChunks(1)
		ch := &s.chunks[0]
		ch.lo, ch.hi = 0, len(level)
		s.expandRange(ch, s.x)
		return s.chunks[:1]
	}
	if !s.started {
		s.startWorkers(workers)
	}
	chunkSize := (len(level) + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	if chunkSize < minChunkSize {
		chunkSize = minChunkSize
	}
	n := (len(level) + chunkSize - 1) / chunkSize
	s.ensureChunks(n)
	s.levelWG.Add(n)
	for i := 0; i < n; i++ {
		ch := &s.chunks[i]
		ch.lo = i * chunkSize
		ch.hi = min(ch.lo+chunkSize, len(level))
		s.workCh <- ch
	}
	s.levelWG.Wait()
	return s.chunks[:n]
}

// expandRange expands the level entries in [ch.lo, ch.hi), racing the
// shared visited set. It bails out early when the context is cancelled or
// the visited set has already overflowed the configuration cap; both
// conditions guarantee the coordinator caps the result, so truncated
// output is never mistaken for exhaustion. A packing failure (dictionary
// capacity) is parked in ch.err for the coordinator.
//
// A raw-identity pre-filter (a hash of the packed record itself) screens
// out transitions that rebuild a record the bounded rawSeen cache still
// holds before the canonical key is ever streamed; only the other children
// are fingerprinted canonically. The pre-filter is a pure shortcut: packed
// records are exact, so a raw-duplicate's canonical fingerprint was
// already added to the visited set when its identical twin was processed —
// skipping it cannot change the visited set, the visit sequence or the
// counters, and a twin the cache has forgotten is rejected by the visited
// set instead. A masked search keys the pre-filter on the record and the
// child's mask together, so a hit means the visited set already holds
// every bit of that mask.
func (s *search) expandRange(ch *chunk, x *Expander) {
	// The previous level's slots were merged before this chunk was
	// redispatched, so reusing its buffers here cannot lose a child.
	ch.slots = ch.slots[:0]
	ch.words = ch.words[:0]
	ch.dupSteps = 0
	ch.err = nil
	ch.rawHits = 0
	h0, m0 := x.stepper.Stats()
	defer func() {
		h, m := x.stepper.Stats()
		ch.stepHits, ch.stepMisses = h-h0, m-m0
	}()
	steps := 0
	for i := ch.lo; i < ch.hi; i++ {
		ent := &s.level[i]
		rec, mask := ent.words, s.open
		if s.masked {
			rec, mask = rec[:len(rec)-1], rec[len(rec)-1]&s.open
		}
		if mask == 0 {
			continue
		}
		for _, m := range x.Moves(rec, s.p) {
			childMask := mask & s.allowed[m.Pid]
			if childMask == 0 {
				continue
			}
			steps++
			if steps%cancelPollStride == 0 {
				if s.ctx.Err() != nil || s.visited.Len() > s.maxConfigs {
					return
				}
			}
			child, err := x.Step(rec, m)
			if err != nil {
				ch.err = err
				return
			}
			key := child
			if s.masked {
				ch.rec = append(append(ch.rec[:0], child...), childMask)
				key = ch.rec
			}
			if s.rawSeen.seen(mixWords(key)) {
				ch.rawHits++
				ch.dupSteps++
				continue
			}
			fp, err := x.Fingerprint(child)
			if err != nil {
				ch.err = err
				return
			}
			held, fresh := s.visited.add(fp, childMask)
			if childMask&^held == 0 {
				ch.dupSteps++
				continue
			}
			via, err := model.PackMove(m)
			if err != nil {
				ch.err = err
				return
			}
			ch.words = append(ch.words, key...)
			ch.slots = append(ch.slots, childSlot{via: via, parent: ent.id, mask: childMask, fresh: fresh})
		}
	}
}

func (s *search) ensureChunks(n int) {
	for len(s.chunks) < n {
		s.chunks = append(s.chunks, chunk{})
	}
}

func (s *search) startWorkers(n int) {
	s.workCh = make(chan *chunk, n*chunksPerWorker)
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer s.wg.Done()
			x := NewExpander(s.codec, s.opts)
			for ch := range s.workCh {
				s.expandRange(ch, x)
				s.levelWG.Done()
			}
		}()
	}
	s.started = true
}

// stopWorkers shuts the pool down; safe to call whether or not it started.
func (s *search) stopWorkers() {
	if s.started {
		close(s.workCh)
		s.wg.Wait()
	}
}
