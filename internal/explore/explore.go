// Package explore provides bounded-exhaustive exploration of the
// configuration space of a protocol expressed in the internal/model
// framework. It is the computational engine behind the valency oracle
// (internal/valency) and the protocol checkers (internal/check).
//
// The paper's arguments quantify over "P-only executions from C". For the
// protocols this repository attacks, the set of configurations reachable by
// P-only executions is finite modulo the protocol's canonicalisation (see
// Options.Canon), so breadth-first search decides those quantifiers
// exactly. Caps guard against unbounded spaces: when a cap binds, the
// search reports it explicitly instead of silently returning partial truth.
//
// The search is built for tens of millions of configurations on a single
// machine: the visited set holds only 128-bit fingerprints of canonical
// keys (a false merge needs a fingerprint collision; for 10^8 states the
// probability is below 10^-21), nodes retain only a parent index and the
// packed connecting move for witness-path reconstruction, and the BFS
// frontier itself is an arena of bit-packed dictionary-index records
// (model.PackedCodec). The node forest and the frontier are kept in fixed
// pages, so neither is copied as it grows, and transitions that rebuild a
// recently produced record verbatim are screened out by a bounded, lossy
// cache of record digests before any key is rendered. A child is
// fingerprinted from its dictionary ids:
// the codec keeps each interned state's and value's key template (its
// canonical key bytes with the round fields cut out), so the child's key
// is those templates with the configuration's rounds renumbered. A child
// is unpacked into a configuration only for the visit callback, into
// buffers the next visit overwrites, so Visit.Config must not be retained
// past the callback's return (clone it if needed).
//
// The frontier is expanded level-synchronously by a pool of workers
// (Options.Workers) that deduplicate through a sharded lock-striped
// fingerprint set and render keys into reused buffers, so no
// per-configuration key string is allocated on the hot path. The
// visit callback is always invoked from the calling goroutine, in
// deterministic order: one worker and N workers visit the same
// configuration count at every level, and every witness path remains
// replayable (parallel runs may pick a different — behaviourally
// equivalent — representative when two same-level configurations share a
// canonical key).
package explore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/model"
	"repro/internal/obs"
)

// ErrCapped is returned (wrapped) when exploration hits a configured cap
// before exhausting the reachable space. Results derived from a capped
// exploration are not sound for "for all executions" claims.
var ErrCapped = errors.New("exploration capped before exhausting state space")

// cancelCheckInterval is how many expanded transitions pass between
// context-cancellation polls: frequent enough that a deadline lands within
// microseconds of real work, rare enough to stay off the hot path.
const cancelCheckInterval = 1 << 10

// Options bound an exploration. The zero value means "use defaults".
type Options struct {
	// MaxConfigs caps the number of distinct configurations visited.
	// Zero means DefaultMaxConfigs.
	MaxConfigs int
	// MaxDepth caps the BFS depth (schedule length). Zero means no cap.
	MaxDepth int
	// Canon, when non-nil, canonicalises the state identity used for
	// deduplication; nil keys configurations exactly, by Config.Key's
	// bytes. Protocols with unbounded-but-symmetric state (e.g.
	// DiskRace's ballots) supply a canonicaliser that quotients the space
	// by a bisimulation, making exhaustive search terminate. It must
	// identify only behaviourally equivalent configurations;
	// consensus.TestDiskRaceCanonicalBisimulation is the guard for the one
	// canonicaliser this repository ships, and
	// consensus.TestCanonicalKeyToMatchesCanonicalKey holds its keys to
	// their string reference form. The search keeps one key template per
	// interned state and value (model.Canon), so a packed child is
	// fingerprinted without being unpacked.
	Canon model.Canon
	// Workers is the number of frontier-expansion workers. Zero means
	// GOMAXPROCS; 1 forces single-threaded expansion. Worker count never
	// changes the number of configurations visited per level.
	Workers int
	// Obs, when non-nil, receives per-level progress (frontier size,
	// dedup hits, cumulative configurations) for the live observability
	// layer. nil is the no-op default: the search pays one nil-check per
	// BFS level, never per configuration (the allocation-regression tests
	// guard this).
	Obs *obs.Scope
}

// DefaultMaxConfigs is the visited-configuration cap used when
// Options.MaxConfigs is zero. It is sized so that a runaway exploration
// fails in minutes, not hours; experiments that need more raise it
// explicitly.
const DefaultMaxConfigs = 1 << 21

func (o Options) maxConfigs() int {
	if o.MaxConfigs <= 0 {
		return DefaultMaxConfigs
	}
	return o.MaxConfigs
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// node is the retained per-state record: enough to reconstruct the witness
// path, nothing more. via holds the connecting move in its 32-bit
// model.PackMove encoding — the forest is retained for every visited
// configuration, so a Move's string header here would dominate the
// search's permanent footprint.
type node struct {
	parent int32
	depth  int32
	via    uint32
}

// Visit is the information handed to the visit callback for each node, in
// BFS order. Config is only valid during the callback (the next visit
// unpacks into the same buffers); ID is stable and can be
// passed to Result.PathTo afterwards. Mask holds bit k when the node's
// path is an execution of ReachSets' sets[k] alone; it is 1 in a Reach.
type Visit struct {
	Config model.Config
	ID     int
	Depth  int
	Mask   uint64
}

// Result is the outcome of an exploration.
type Result struct {
	// Count is the number of distinct configurations visited. A
	// ReachSets over several sets may visit one configuration as several
	// nodes; Count counts it once.
	Count int
	// Capped reports whether a cap stopped the search early.
	Capped bool
	// Steps counts state transitions examined (for reporting).
	Steps int
	// PeakFrontier is the largest BFS level encountered: the high-water
	// mark of nodes simultaneously retained by the search.
	PeakFrontier int
	// Depth is the deepest BFS level at which a configuration was visited
	// (the schedule length of the longest witness path).
	Depth int

	nodes forest
}

// forestPageBits sets the node forest's page size, 1<<forestPageBits
// nodes. A variable so the differential tests can force many pages onto
// tiny spaces.
var forestPageBits = 16

// forest is a search's node forest, indexed by node id, in pages of
// 1<<shift nodes. A full page is never copied, so a large search allocates
// each node about once instead of the about five times an append-grown
// slice would. Page 0 alone grows, by reserve's doubling, so the many tiny
// searches allocate only about what they keep.
type forest struct {
	pages [][]node
	n     int
	shift uint
}

func newForest() forest { return forest{shift: uint(forestPageBits)} }

// len returns the number of nodes.
func (f *forest) len() int { return f.n }

// add appends nd as node f.len().
func (f *forest) add(nd node) {
	last := len(f.pages) - 1
	if last < 0 || len(f.pages[last]) == 1<<f.shift {
		var page []node
		if last >= 0 {
			page = make([]node, 0, 1<<f.shift)
		}
		f.pages = append(f.pages, page)
		last++
	}
	f.pages[last] = append(reserve(f.pages[last], 1, 1<<f.shift), nd)
	f.n++
}

// at returns node id, which must be below f.len().
func (f *forest) at(id int) node {
	return f.pages[id>>f.shift][id&(1<<f.shift-1)]
}

// PathTo reconstructs the move sequence from the root to the visited
// node with the given ID. The boolean is false for out-of-range IDs.
func (r *Result) PathTo(id int) (model.Path, bool) {
	packed, ok := r.packedPathTo(nil, id)
	var path model.Path
	for _, mv := range packed {
		path = append(path, model.UnpackMove(mv))
	}
	return path, ok
}

// packedPathTo writes the witness path of node id, as model.PackMove
// encodings from the root on, over dst. The boolean is false for
// out-of-range ids.
func (r *Result) packedPathTo(dst []uint32, id int) ([]uint32, bool) {
	dst = dst[:0]
	if id < 0 || id >= r.nodes.len() {
		return dst, false
	}
	for id != 0 {
		n := r.nodes.at(id)
		dst = append(dst, n.via)
		id = int(n.parent)
	}
	slices.Reverse(dst)
	return dst, true
}

// Moves enumerates the moves available to the processes in p at
// configuration c: one move per non-decided process, except that a process
// poised on a coin flip contributes one move per outcome. Decided processes
// take no steps (their next "step" would be a no-op self-loop).
func Moves(c model.Config, p []int) []model.Move {
	moves := make([]model.Move, 0, len(p)+2)
	for _, pid := range p {
		k, _ := model.PeekOp(c.State(pid))
		switch k {
		case model.OpDecide:
			// Terminated; contributes no transitions.
		case model.OpCoin:
			moves = append(moves,
				model.Move{Pid: pid, Coin: "0"},
				model.Move{Pid: pid, Coin: "1"},
			)
		default:
			moves = append(moves, model.Move{Pid: pid})
		}
	}
	return moves
}

// levelEntry is one frontier configuration awaiting expansion: its node id
// and its record in the frontier arena.
type levelEntry struct {
	id    int32
	words []uint64
}

// parallelThreshold is the smallest level size worth fanning out to the
// worker pool; below it the coordinator expands inline (a variable so the
// equivalence tests can force the pool onto tiny spaces).
var parallelThreshold = 256

// Reach explores every configuration reachable from c by executions
// containing only steps of processes in p (a "P-only" exploration). The
// visit callback, if non-nil, is invoked once per distinct configuration in
// BFS order — always from the calling goroutine, whatever Options.Workers
// says — and may return false to stop the search early (the result is then
// marked Capped, since the space was not exhausted).
//
// ctx bounds the search in wall-clock time: when it is cancelled or its
// deadline passes, the search stops, marks the result Capped, and returns it
// together with an error wrapping ctx.Err() — everything visited so far is
// still valid, the space just was not exhausted. The states-visited budget
// is Options.MaxConfigs.
func Reach(ctx context.Context, c model.Config, p []int, opts Options, visit func(Visit) bool) (*Result, error) {
	var visitSets func(Visit) uint64
	if visit != nil {
		visitSets = func(v Visit) uint64 {
			if visit(v) {
				return 1
			}
			return 0
		}
	}
	return ReachSets(ctx, c, [][]int{p}, opts, visitSets)
}

// ReachSets explores, in one search, the union of the sets[k]-only spaces
// from c, for at most 64 process sets. Every node carries a candidate
// mask: bit k is set when the path that reached the node is a sets[k]-only
// execution. A step of process q gives the child the parent's mask, minus
// the sets without q and minus the sets the callback has closed. The
// visited set keeps, per configuration, the union of the masks it was
// reached with. A configuration reached again with bits it does not hold
// is visited and expanded again, as a new node with its own id, so a node
// may repeat a configuration; Result.Count counts configurations.
//
// visit returns the sets still open, and 0 stops the search, marking it
// Capped. With one set this is Reach: p's moves in the order given and
// the worker pool. With more, moves come from the union of the sets in
// pid order, and every parent is expanded on the calling goroutine with
// its children visited before the next parent is expanded, so a set the
// callback closes stops spreading at once.
func ReachSets(ctx context.Context, c model.Config, sets [][]int, opts Options, visit func(Visit) uint64) (*Result, error) {
	res := &Result{nodes: newForest()}
	maxConfigs := opts.maxConfigs()
	if err := ctx.Err(); err != nil {
		res.Capped = true
		return res, fmt.Errorf("reach cancelled before start: %w (and %w)", err, ErrCapped)
	}
	if len(sets) == 0 || len(sets) > 64 {
		return res, fmt.Errorf("explore: %d process sets, want 1 to 64", len(sets))
	}
	masked := len(sets) > 1
	// allowed[pid] holds the sets containing pid; procs lists the pids
	// whose moves are expanded.
	allowed := make([]uint64, c.NumProcesses())
	for k, p := range sets {
		for _, pid := range p {
			if pid < 0 || pid >= len(allowed) {
				return res, fmt.Errorf("explore: pid %d outside [0,%d)", pid, len(allowed))
			}
			allowed[pid] |= 1 << uint(k)
		}
	}
	procs := sets[0]
	if masked {
		procs = nil
		for pid, m := range allowed {
			if m != 0 {
				procs = append(procs, pid)
			}
		}
	}

	// A search that never starts the pool only ever touches its sets from
	// this goroutine, so they can skip their stripe mutexes.
	locked := !masked && opts.workers() > 1
	mkSet := newFPSet
	if !locked {
		mkSet = NewLocalFPSet
	}
	s := &search{
		ctx:        ctx,
		opts:       opts,
		p:          procs,
		allowed:    allowed,
		open:       ^uint64(0) >> (64 - len(sets)),
		masked:     masked,
		maxConfigs: maxConfigs,
		visited:    mkSet(),
		rawSeen:    &rawCache{locked: locked},
		codec:      model.NewCanonCodec(c, opts.Canon),
		metrics:    newSearchMetrics(opts.Obs),
	}
	s.visited.masked = masked
	s.stride = s.codec.Words()
	if masked {
		s.stride++
	}
	s.x = NewExpander(s.codec, opts)
	defer s.stopWorkers()

	var level, next frontier
	level.stride, next.stride = s.stride, s.stride
	rec, err := s.x.Pack(c)
	if err != nil {
		return res, fmt.Errorf("reach root: %w", err)
	}
	fp, err := s.x.Fingerprint(rec)
	if err != nil {
		return res, fmt.Errorf("reach root: %w", err)
	}
	all := s.open
	s.visited.add(fp, all)
	res.nodes.add(node{parent: 0})
	res.Count = 1
	res.PeakFrontier = 1
	if visit != nil {
		if s.open = visit(Visit{Config: c, ID: 0, Depth: 0, Mask: all}); s.open == 0 {
			res.Capped = true
			return res, fmt.Errorf("reach from %d procs: %w", len(procs), ErrCapped)
		}
	}
	if masked {
		rec = append(rec, all)
	}
	level.add(0, rec)

	depth := int32(0)
	var buf batchBuf
	for level.len() > 0 {
		if opts.MaxDepth > 0 && int(depth) >= opts.MaxDepth {
			// The frontier beyond the depth cap is not expanded; the
			// space was not exhausted.
			res.Capped = true
			break
		}
		if n := level.len(); n > res.PeakFrontier {
			res.PeakFrontier = n
		}
		// The consumed frontier two levels back becomes the next
		// accumulator; clearing it keeps its pages for reuse, so the
		// frontier's live heap stays bounded by two adjacent levels
		// (see TestReachFrontierBoundedLiveHeap).
		next.clear()
		levelDups := 0
		// Drain the level batch by batch, merging every batch's chunks in
		// their deterministic order: IDs, visit order and caps do not
		// depend on the worker count.
		err := func() error {
			for bi := 0; bi < level.numBatches(); bi++ {
				batch := level.batch(bi, &buf)
				// A masked batch is expanded one parent at a time.
				step := len(batch)
				if masked {
					step = 1
				}
				for lo := 0; lo < len(batch); lo += step {
					chunks := s.expandLevel(batch[lo:min(lo+step, len(batch))])
					if err := ctx.Err(); err != nil {
						return fmt.Errorf("reach cancelled after %d configs: %w (and %w)", res.Count, err, ErrCapped)
					}
					for ci := range chunks {
						ch := &chunks[ci]
						if ch.err != nil {
							return fmt.Errorf("reach pack after %d configs: %w (and %w)", res.Count, ch.err, ErrCapped)
						}
						res.Steps += ch.dupSteps
						levelDups += ch.dupSteps
						s.metrics.chunkDeltas(ch)
						for i := range ch.slots {
							sl := &ch.slots[i]
							res.Steps++
							if res.Steps%cancelCheckInterval == 0 {
								if err := ctx.Err(); err != nil {
									return fmt.Errorf("reach cancelled after %d configs: %w (and %w)", res.Count, err, ErrCapped)
								}
							}
							id := int32(res.nodes.len())
							res.nodes.add(node{parent: sl.parent, depth: depth + 1, via: sl.via})
							if sl.fresh {
								res.Count++
							}
							rec := ch.words[i*s.stride : (i+1)*s.stride]
							if visit != nil {
								cfg, err := s.x.Unpack(rec[:s.codec.Words()])
								if err != nil {
									return fmt.Errorf("reach unpack after %d configs: %w (and %w)", res.Count, err, ErrCapped)
								}
								if s.open = visit(Visit{Config: cfg, ID: int(id), Depth: int(depth + 1), Mask: sl.mask}); s.open == 0 {
									return fmt.Errorf("reach visit stop: %w", ErrCapped)
								}
							}
							if res.Count >= maxConfigs {
								return fmt.Errorf("reach hit %d configs: %w", maxConfigs, ErrCapped)
							}
							next.add(id, rec)
						}
					}
				}
			}
			return nil
		}()
		if err != nil {
			// Every early exit leaves the space unexhausted.
			res.Capped = true
			return res, err
		}
		if next.len() > 0 {
			res.Depth = int(depth) + 1
		}
		if opts.Obs != nil {
			s.metrics.level(s, &next)
			opts.Obs.ExploreLevel(obs.Level{
				Depth:    int(depth) + 1,
				Frontier: next.len(),
				Dup:      levelDups,
				Configs:  res.Count,
				Steps:    res.Steps,
			})
		}
		level, next = next, level
		depth++
	}
	if res.Capped {
		return res, fmt.Errorf("reach depth-capped at %d: %w", opts.MaxDepth, ErrCapped)
	}
	return res, nil
}
