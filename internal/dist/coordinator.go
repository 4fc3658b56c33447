package dist

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/obs"
)

// sliceInfo is the coordinator's book-keeping for one fingerprint slice.
type sliceInfo struct {
	owner string // worker id, "" while unowned
	// freeSince is when the slice was last revoked; zero if never. It
	// starts the grant grace (see grantLocked).
	freeSince time.Time

	// ckpt is the slice's newest checkpoint (segment bytes) and the level
	// it was taken at. Reassignment hands these to the new owner.
	ckpt      []byte
	ckptLevel int
	hasCkpt   bool
	everOwned bool
	epoch     int

	// The current level's barrier mark. A slice is marked only after its
	// checkpoint and every chunk of the level landed, so a mark stays valid
	// whoever owns the slice next: revocation and recovery both keep it.
	// Level-close snapshots hold none, so a crash loses the marks of the
	// level in flight.
	// Posts are idempotent overwrites: a redone level produces the same
	// deterministic values, so the last write is as good as the first.
	expanded bool
	mark     levelMark

	reassigns int
}

// levelMark is what a slice's barrier mark carries: the transitions its
// expansion of the level took, and the size and XOR digest of its frontier
// at that depth.
type levelMark struct {
	Steps  int64
	Fresh  int64
	Digest explore.Fingerprint
}

// chunkKey addresses one exchange chunk.
type chunkKey struct{ level, from, to int }

// Coordinator owns the authoritative state of a distributed run: slice
// leases, the level barrier, retained exchange chunks and checkpoints, and
// the per-level witness stats summed over slices. It runs no goroutines of
// its own — leases are expired lazily on every worker request — and its
// whole state sits behind one mutex, which the modest request rate (a
// handful of polls and posts per worker per level) never contends. A poll from a
// worker with nothing to do parks outside the mutex on the change channel
// and answers as soon as a barrier mark, lease or grant moves, so the
// barrier advances at the speed of the last post, not of a polling
// interval.
type Coordinator struct {
	spec   Spec
	rootFP explore.Fingerprint
	scope  *obs.Scope
	faults *faults.OpInjector

	mu      sync.Mutex
	workers map[string]time.Time // worker id -> last heard from
	slices  []sliceInfo
	level   int
	levels  []LevelStat
	steps   int64
	chunks  map[chunkKey][]byte
	done    bool
	witness []byte
	doneCh  chan struct{}

	// changed is closed and replaced by every mutation that can change a
	// poll's answer (notifyLocked); parked polls wait on it. firstPoll is
	// when the first worker polled this incarnation: the grant grace of a
	// never-owned slice runs from it.
	changed   chan struct{}
	firstPoll time.Time

	// levelStart anchors the exchange-latency histogram: each chunk post
	// is observed as time-since-level-start, so the distribution shows how
	// long a level's frontier exchange actually takes (and a reassignment
	// mid-level shows up as a fat tail, not a lost sample).
	levelStart time.Time

	// Durability (S25). journal, when attached, receives a snapshot of the
	// whole state at every level close. gen counts coordinator
	// incarnations: each recovery bumps it and rebases every slice epoch to
	// gen<<20, so grants fenced before the crash can never collide with
	// post-restart epochs.
	journal *Journal
	gen     int
}

// ExchangeLatencyBoundsMicros buckets dist_exchange_us, the time from a
// level's start to each exchange-chunk arrival: sub-millisecond for
// in-memory test runs up to minutes for reassignment-delayed levels.
var ExchangeLatencyBoundsMicros = []int64{1000, 5000, 10000, 50000, 100000, 500000, 1000000, 5000000, 30000000, 120000000}

// NewCoordinator builds a coordinator for the run described by spec.
// rootFP names the explored space's root; the coordinator uses it only to
// tell its own journal from another run's.
func NewCoordinator(spec Spec, rootFP explore.Fingerprint, scope *obs.Scope) (*Coordinator, error) {
	if spec.Slices < 1 {
		return nil, fmt.Errorf("dist: %d slices", spec.Slices)
	}
	if spec.LeaseMS <= 0 {
		return nil, fmt.Errorf("dist: lease %dms", spec.LeaseMS)
	}
	if spec.FPVersion == 0 {
		spec.FPVersion = explore.FingerprintVersion
	}
	c := &Coordinator{
		spec:    spec,
		rootFP:  rootFP,
		scope:   scope,
		workers: make(map[string]time.Time),
		slices:  make([]sliceInfo, spec.Slices),
		chunks:  make(map[chunkKey][]byte),
		doneCh:  make(chan struct{}),
		changed: make(chan struct{}),

		levelStart: time.Now(),
	}
	scope.Gauge("dist_slices").Set(int64(spec.Slices))
	// An empty space (MaxDepth 0 is unbounded, so only a pathological
	// spec hits this) still needs a consistent start.
	if spec.MaxDepth < 0 {
		return nil, fmt.Errorf("dist: negative max depth")
	}
	return c, nil
}

// SetFaults attaches an operation-fault injector; the tests use it to
// corrupt served chunks ("dist.chunk.get") and prove the workers reject
// and re-request them.
func (c *Coordinator) SetFaults(inj *faults.OpInjector) { c.faults = inj }

// Spec returns the run description.
func (c *Coordinator) Spec() Spec { return c.spec }

// Done is closed when the run completes.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Witness returns the rendered witness, or an error while the run is still
// in flight.
func (c *Coordinator) Witness() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		return nil, fmt.Errorf("dist: run still at level %d", c.level)
	}
	return c.witness, nil
}

// lease returns the lease duration.
func (c *Coordinator) lease() time.Duration {
	return time.Duration(c.spec.LeaseMS) * time.Millisecond
}

// beat is a fifth of the lease: the longest a poll parks (at most
// maxPark), so a parked worker's heartbeat is re-stamped well inside its
// lease, and the grant grace an unowned slice waits out before a worker
// already holding one may take it.
func (c *Coordinator) beat() time.Duration { return c.lease() / 5 }

// notifyLocked wakes every parked poll to re-evaluate its answer.
func (c *Coordinator) notifyLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// heartbeatLocked renews w's lease and expires everyone else's.
func (c *Coordinator) heartbeatLocked(w string, now time.Time) {
	c.workers[w] = now
	lease := c.lease()
	for id, seen := range c.workers {
		if id == w || now.Sub(seen) <= lease {
			continue
		}
		delete(c.workers, id)
		c.scope.Event("dist_lease_expired")
		for s := range c.slices {
			if c.slices[s].owner == id {
				c.revokeLocked(s, now)
			}
		}
	}
	c.scope.Gauge("dist_workers_live").Set(int64(len(c.workers)))
}

// revokeLocked returns a slice to the pool. Its barrier mark, if any, and
// the chunks the dead owner posted are kept: the next owner redoes only
// what the level still lacks, and its reposts carry identical bytes.
func (c *Coordinator) revokeLocked(s int, now time.Time) {
	sl := &c.slices[s]
	sl.owner = ""
	sl.freeSince = now
	c.notifyLocked()
}

// grantLocked hands at most one unowned slice to w. One per poll keeps the
// initial distribution spread across however many workers attach. A worker
// that holds no slice gets one at once; a worker that already holds one
// may take another only once that slice has been unowned for a beat —
// counted from its revocation, or from this incarnation's first poll for
// a slice nobody held since — so a fast first worker cannot take a slice
// a peer's first poll is about to claim, while a lone worker still
// accumulates every slice. A regrant of a slice that ever had an owner
// counts as a reassignment.
func (c *Coordinator) grantLocked(w string, now time.Time) {
	holds := false
	for s := range c.slices {
		if c.slices[s].owner == w {
			holds = true
			break
		}
	}
	for s := range c.slices {
		sl := &c.slices[s]
		if sl.owner != "" {
			continue
		}
		if holds && now.Sub(later(sl.freeSince, c.firstPoll)) < c.beat() {
			continue
		}
		c.assignLocked(s, w)
		return
	}
}

// assignLocked makes w the owner of slice s under a fresh epoch.
func (c *Coordinator) assignLocked(s int, w string) {
	sl := &c.slices[s]
	if sl.everOwned {
		sl.reassigns++
		c.scope.Counter("dist_reassigns").Add(1)
	}
	sl.owner = w
	sl.everOwned = true
	sl.epoch++
	c.scope.Event("dist_grant")
	c.notifyLocked()
}

// later returns the later of two instants.
func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// pollSlice is one slice's entry in a poll response. Epoch fences grants:
// it bumps on every grant, so a worker that was silently revoked and later
// regranted the same slice (its local state possibly stale by then) sees
// the epoch change and rebuilds from the checkpoint instead of trusting
// memory. Expanded is the coordinator's authoritative barrier mark for the
// current level: a slice without it is the worker's to do.
type pollSlice struct {
	Slice    int  `json:"slice"`
	Epoch    int  `json:"epoch"`
	HasCkpt  bool `json:"has_ckpt"`
	Expanded bool `json:"expanded"`
}

// pollResponse is the authoritative answer to a worker poll: the barrier
// position and the full set of slices the worker currently leases.
type pollResponse struct {
	Level  int         `json:"level"`
	Done   bool        `json:"done"`
	Slices []pollSlice `json:"slices"`
}

// maxPark caps a poll's park well inside the worker client's 30 s request
// timeout, whatever the lease.
const maxPark = 10 * time.Second

// poll is a worker's heartbeat + work request. It answers at once when w
// has work — the run is done, or a slice w leases still lacks the current
// level's barrier mark. Otherwise it parks, holding no lock, until a
// mutation closes the change channel (then it re-evaluates), a beat
// passes, or ctx ends. Every wake re-stamps w's heartbeat, so a parked
// worker never loses its lease.
func (c *Coordinator) poll(ctx context.Context, w string) pollResponse {
	timer := time.NewTimer(min(c.beat(), maxPark))
	defer timer.Stop()
	for {
		resp, changed := c.pollOnce(w)
		if resp.hasWork() {
			return resp
		}
		select {
		case <-changed:
		case <-timer.C:
			resp, _ = c.pollOnce(w)
			return resp
		case <-ctx.Done():
			return resp
		}
	}
}

// pollOnce heartbeats w, grants it a slice if one is due, and returns its
// answer with the change channel that answer is current for.
func (c *Coordinator) pollOnce(w string) (pollResponse, <-chan struct{}) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pollLocked(w, now), c.changed
}

// pollLocked is pollOnce at a given instant.
func (c *Coordinator) pollLocked(w string, now time.Time) pollResponse {
	if c.firstPoll.IsZero() {
		c.firstPoll = now
	}
	c.heartbeatLocked(w, now)
	if !c.done {
		c.grantLocked(w, now)
	}
	resp := pollResponse{Level: c.level, Done: c.done}
	for s := range c.slices {
		if sl := &c.slices[s]; sl.owner == w {
			resp.Slices = append(resp.Slices, pollSlice{
				Slice:    s,
				Epoch:    sl.epoch,
				HasCkpt:  sl.hasCkpt,
				Expanded: sl.expanded,
			})
		}
	}
	return resp
}

// hasWork reports whether the answer gives its worker something to do:
// the run is over, or one of its slices still lacks the level's mark.
func (r pollResponse) hasWork() bool {
	if r.Done {
		return true
	}
	for _, ps := range r.Slices {
		if !ps.Expanded {
			return true
		}
	}
	return false
}

// heartbeat renews the worker's lease without granting work; workers call
// it from inside long expansions so a big level does not cost them their
// slices.
func (c *Coordinator) heartbeat(w string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.heartbeatLocked(w, now)
}

// errNotOwner is mapped to HTTP 409 by the handler: the poster's lease on
// the slice is gone (a zombie past its stall, or a worker racing a
// revocation). The worker drops the slice; the rightful owner's posts are
// the ones that count.
type errNotOwner struct{ slice int }

func (e errNotOwner) Error() string { return fmt.Sprintf("dist: not the owner of slice %d", e.slice) }

// checkOwnerLocked validates w's lease on slice s.
func (c *Coordinator) checkOwnerLocked(w string, s int) error {
	if s < 0 || s >= len(c.slices) {
		return fmt.Errorf("dist: no slice %d", s)
	}
	if c.slices[s].owner != w {
		return errNotOwner{slice: s}
	}
	return nil
}

// putCheckpoint stores a slice's level checkpoint if it advances the
// slice's recovery point. The stored checkpoint stays monotonic in level:
// the client retries on its request timeout while the original upload may
// still be applied afterwards, so a delayed duplicate can arrive after a
// newer level's checkpoint landed — storing it would regress the recovery
// point, and a reassignment while it is >= 2 levels behind the run would
// then be fatally unadoptable. Same-level posts carry identical bytes (the
// encoding is deterministic), so dropping them loses nothing either.
func (c *Coordinator) putCheckpoint(w string, s, level int, body []byte) error {
	// Validate before locking: a torn upload must never become the
	// recovery point.
	ck, err := DecodeSliceCheckpoint(body)
	if err != nil {
		return err
	}
	if ck.Slice != s || ck.Level != level {
		return fmt.Errorf("dist: checkpoint body is slice %d level %d, request says %d/%d", ck.Slice, ck.Level, s, level)
	}
	if ck.FPVersion != c.spec.FPVersion {
		return fmt.Errorf("dist: checkpoint fingerprints are v%d, run uses v%d", ck.FPVersion, c.spec.FPVersion)
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.heartbeatLocked(w, now)
	if err := c.checkOwnerLocked(w, s); err != nil {
		return err
	}
	sl := &c.slices[s]
	if sl.hasCkpt && level <= sl.ckptLevel {
		return nil
	}
	sl.ckpt = body
	sl.ckptLevel = level
	sl.hasCkpt = true
	c.scope.Counter("dist_ckpt_bytes").Add(int64(len(body)))
	return nil
}

// getCheckpoint serves a slice's newest checkpoint to its (new) owner.
func (c *Coordinator) getCheckpoint(s int) ([]byte, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s < 0 || s >= len(c.slices) || !c.slices[s].hasCkpt {
		return nil, 0, fmt.Errorf("dist: no checkpoint for slice %d", s)
	}
	return c.slices[s].ckpt, c.slices[s].ckptLevel, nil
}

// putChunk verifies and stores one exchange chunk. The bytes are decoded
// on receipt — a torn or corrupted upload is rejected with a typed error
// and never stored, so readers can trust every stored chunk.
func (c *Coordinator) putChunk(w string, body []byte) error {
	h, raw, err := checkpoint.DecodeChunk(body)
	if err != nil {
		c.scope.Counter("dist_chunks_rejected").Add(1)
		return err
	}
	entries, err := DecodeEntries(raw)
	if err != nil {
		c.scope.Counter("dist_chunks_rejected").Add(1)
		return err
	}
	if h.Kind != chunkKind || len(entries) != h.Count {
		c.scope.Counter("dist_chunks_rejected").Add(1)
		return fmt.Errorf("dist: chunk kind %q count %d does not match %d entries", h.Kind, h.Count, len(entries))
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.heartbeatLocked(w, now)
	if h.Level < c.level {
		// Delayed duplicate of a chunk for a closed level; the stored copy
		// (identical bytes) landed before the level could close.
		// Idempotent — whoever owns the slice now, the level's answer is
		// already folded in.
		return nil
	}
	if h.Level != c.level {
		return fmt.Errorf("dist: chunk for level %d, run is at %d", h.Level, c.level)
	}
	key := chunkKey{level: h.Level, from: h.From, to: h.To}
	if stored, ok := c.chunks[key]; ok && bytes.Equal(stored, body) {
		// Identical repost — a retry whose original landed, or a redo after
		// reassignment. First write won; idempotent regardless of who owns
		// the slice by now.
		return nil
	}
	if err := c.checkOwnerLocked(w, h.From); err != nil {
		return err
	}
	c.chunks[key] = body
	c.scope.Counter("dist_chunks_posted").Add(1)
	c.scope.Counter("dist_chunk_bytes").Add(int64(len(body)))
	c.scope.Histogram("dist_exchange_us", ExchangeLatencyBoundsMicros).Observe(now.Sub(c.levelStart).Microseconds())
	return nil
}

// chunkSources lists the from-slices with a stored chunk addressed to
// slice `to` at the level.
func (c *Coordinator) chunkSources(level, to int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var froms []int
	for from := 0; from < len(c.slices); from++ {
		if _, ok := c.chunks[chunkKey{level: level, from: from, to: to}]; ok {
			froms = append(froms, from)
		}
	}
	return froms
}

// getChunk serves one stored chunk. The "dist.chunk.get" fault op, when
// scripted, serves a copy with one byte flipped — the wire-corruption the
// workers' verified decode must catch and retry past.
func (c *Coordinator) getChunk(level, from, to int) ([]byte, error) {
	c.mu.Lock()
	body, ok := c.chunks[chunkKey{level: level, from: from, to: to}]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dist: no chunk level %d %d->%d", level, from, to)
	}
	if err := c.faults.Hit("dist.chunk.get"); err != nil {
		mut := make([]byte, len(body))
		copy(mut, body)
		if len(mut) > 0 {
			mut[len(mut)/2] ^= 0x40
		}
		c.scope.Counter("dist_chunks_served_corrupt").Add(1)
		return mut, nil
	}
	return body, nil
}

// expanded records a slice's barrier mark for the level. The worker posts
// it last, after the slice's checkpoint and every chunk of the level, so
// any later owner can adopt a marked slice as it stands. The mark that
// completes the level closes it.
func (c *Coordinator) expanded(w string, s, level int, m levelMark) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.heartbeatLocked(w, now)
	if err := c.checkOwnerLocked(w, s); err != nil {
		return err
	}
	if level < c.level || c.done {
		// Delayed duplicate for a closed level; already counted. Idempotent.
		return nil
	}
	if level != c.level {
		return fmt.Errorf("dist: mark for level %d, run is at %d", level, c.level)
	}
	sl := &c.slices[s]
	if sl.expanded && sl.mark == m {
		return nil // duplicate — already applied
	}
	sl.expanded = true
	sl.mark = m
	c.maybeAdvanceLocked()
	c.notifyLocked()
	return nil
}

// maybeAdvanceLocked closes the level once every slice has marked it:
// record the depth's count and digest, add the level's steps, prune chunks
// below the level (the next level's catch-up needs only this level's set),
// and either start the next level or finish the run. Either way the new
// state is snapshotted: it is the journal's only durable record.
func (c *Coordinator) maybeAdvanceLocked() {
	if c.done {
		return
	}
	var sum levelMark
	for i := range c.slices {
		sl := &c.slices[i]
		if !sl.expanded {
			return
		}
		sum.Steps += sl.mark.Steps
		sum.Fresh += sl.mark.Fresh
		sum.Digest[0] ^= sl.mark.Digest[0]
		sum.Digest[1] ^= sl.mark.Digest[1]
	}
	c.steps += sum.Steps
	// A depth with nothing fresh is the run ending, not a level: the
	// sequential reference records no empty depth, and the witnesses must
	// match byte for byte.
	if sum.Fresh > 0 {
		c.levels = append(c.levels, LevelStat{Fresh: sum.Fresh, Digest: sum.Digest})
	}
	for i := range c.slices {
		c.slices[i].expanded = false
		c.slices[i].mark = levelMark{}
	}
	c.pruneChunksLocked(c.level)
	c.scope.Event("dist_level_done")
	if sum.Fresh == 0 || (c.spec.MaxDepth > 0 && c.level >= c.spec.MaxDepth) {
		c.done = true
		c.witness = RenderWitness(c.spec, c.levels, c.steps)
		// No reassignment can need a chunk now: workers see Done on their
		// next poll and exit without fetching. Free the lot — and keep the
		// final journal snapshot from carrying it.
		c.pruneChunksLocked(maxJournalInt)
		c.scope.Gauge("dist_done").Set(1)
		close(c.doneCh)
		c.snapshotLocked()
		return
	}
	c.level++
	c.levelStart = time.Now()
	c.scope.Gauge("dist_level").Set(int64(c.level))
	c.snapshotLocked()
}

// pruneChunksLocked drops retained exchange chunks for levels below floor.
// The retention window {level-1, level} (floor = level-1) is exactly what
// an owner can still need: a slice's checkpoint is never older than the
// previous level, and its catch-up ingests that level's chunk set.
// Without the prune, chunk memory — and the journal snapshots carrying
// it — would grow with the full explored space instead of the frontier.
func (c *Coordinator) pruneChunksLocked(floor int) {
	pruned := 0
	for key := range c.chunks {
		if key.level < floor {
			delete(c.chunks, key)
			pruned++
		}
	}
	if pruned > 0 {
		c.scope.Counter("dist_chunks_pruned").Add(int64(pruned))
	}
}

// ShardHealth reports per-slice liveness for /progress: the owning worker,
// the run's level, its lease age, and how many times the slice has been
// reassigned. One endpoint diagnoses a stalled distributed
// run.
func (c *Coordinator) ShardHealth() []obs.ShardHealth {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]obs.ShardHealth, len(c.slices))
	for s := range c.slices {
		sl := &c.slices[s]
		h := obs.ShardHealth{
			Slice:     s,
			Worker:    sl.owner,
			Level:     c.level,
			Reassigns: sl.reassigns,
		}
		if sl.owner != "" {
			if seen, ok := c.workers[sl.owner]; ok {
				h.LeaseAgeSec = now.Sub(seen).Seconds()
			}
		} else {
			h.LeaseAgeSec = -1
		}
		out[s] = h
	}
	return out
}
