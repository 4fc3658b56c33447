package dist

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/model"
)

// Replay rebuilds the entry's configuration by applying its path to root
// through model.Apply: the reference the worker's packed replay is held to.
func (e *Entry) Replay(root model.Config) model.Config {
	c := root
	for _, mv := range e.Path {
		c = model.Apply(c, model.UnpackMove(mv))
	}
	return c
}

// referenceExpand is the exchange contract in its plainest form: replay
// each entry's path from the root, take every move explore.Moves lists, apply
// it, fingerprint the child, and bucket the child under its owning slice
// in that order. It returns the buckets and the transition count.
func referenceExpand(t *testing.T, run *Run, frontier []Entry, slices int) (map[int][]Entry, int64) {
	t.Helper()
	fpr := run.Opts.NewFingerprinter()
	out := make(map[int][]Entry)
	var steps int64
	for _, e := range frontier {
		cfg := e.Replay(run.Root)
		for _, mv := range explore.Moves(cfg, run.Procs) {
			steps++
			fp := fpr.Fingerprint(model.Apply(cfg, mv))
			packed, err := model.PackMove(mv)
			if err != nil {
				t.Fatal(err)
			}
			path := append(append([]uint32{}, e.Path...), packed)
			dest := explore.ShardOf(fp, slices)
			out[dest] = append(out[dest], Entry{FP: fp, Path: path})
		}
	}
	return out, steps
}

// TestExpandChunkBytesMatchReference pins the exchange chunks' byte
// determinism, which putChunk's identical-bytes idempotency and the
// journaled chunks rely on: at every level of a DiskRace n=3 run, the
// worker's expansion must encode to exactly the chunk bytes the reference
// expander's does, for every destination slice.
func TestExpandChunkBytesMatchReference(t *testing.T) {
	const (
		slices = 3
		depth  = 14
	)
	run, err := NewRun(core.ProtocolDiskRace, 3, slices, depth, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Root: run.Root, Procs: run.Procs, Opts: run.Opts}
	x := explore.NewExpander(model.NewCanonCodec(run.Root, run.Opts.Canon), run.Opts)
	rootFP := run.Opts.Fingerprint(run.Root)
	frontier := []Entry{{FP: rootFP}}
	visited := map[explore.Fingerprint]bool{rootFP: true}
	level := 0
	for ; level < depth && len(frontier) > 0; level++ {
		got := make(map[int][]Entry)
		var steps int64
		for i := range frontier {
			n, err := w.expandEntry(x, &frontier[i], slices, got)
			if err != nil {
				t.Fatalf("level %d: %v", level, err)
			}
			steps += n
		}
		want, wantSteps := referenceExpand(t, run, frontier, slices)
		if steps != wantSteps {
			t.Fatalf("level %d: worker took %d transitions, reference %d", level, steps, wantSteps)
		}
		if len(got) != len(want) {
			t.Fatalf("level %d: worker fills %d destination slices, reference %d", level, len(got), len(want))
		}
		for dest := range want {
			gotBody, err := EncodeFrontierChunk(level, 0, dest, got[dest])
			if err != nil {
				t.Fatal(err)
			}
			wantBody, err := EncodeFrontierChunk(level, 0, dest, want[dest])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBody, wantBody) {
				t.Fatalf("level %d slice %d: chunk bytes differ from the reference (%d vs %d bytes)", level, dest, len(gotBody), len(wantBody))
			}
		}
		// The next level's frontier, deduplicated in ingest order.
		var next []Entry
		for dest := 0; dest < slices; dest++ {
			for _, e := range want[dest] {
				if !visited[e.FP] {
					visited[e.FP] = true
					next = append(next, e)
				}
			}
		}
		frontier = next
	}
	if level < 10 {
		t.Fatalf("only %d levels expanded; the run should be deeper", level)
	}
}

// levelFrontier expands a DiskRace run of n processes level by level
// through Worker.expandEntry, deduplicating in ingest order, and returns
// the worker, its Expander and the frontier at depth.
func levelFrontier(tb testing.TB, n, slices, depth int) (*Worker, *explore.Expander, []Entry) {
	tb.Helper()
	run, err := NewRun(core.ProtocolDiskRace, n, slices, depth, time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	w := &Worker{Root: run.Root, Procs: run.Procs, Opts: run.Opts}
	x := explore.NewExpander(model.NewCanonCodec(run.Root, run.Opts.Canon), run.Opts)
	rootFP := run.Opts.Fingerprint(run.Root)
	frontier := []Entry{{FP: rootFP}}
	visited := map[explore.Fingerprint]bool{rootFP: true}
	for level := 0; level < depth; level++ {
		out := make(map[int][]Entry)
		for i := range frontier {
			if _, err := w.expandEntry(x, &frontier[i], slices, out); err != nil {
				tb.Fatal(err)
			}
		}
		var next []Entry
		for dest := 0; dest < slices; dest++ {
			for _, e := range out[dest] {
				if !visited[e.FP] {
					visited[e.FP] = true
					next = append(next, e)
				}
			}
		}
		frontier = next
	}
	if len(frontier) == 0 {
		tb.Fatalf("DiskRace n=%d has no frontier at depth %d", n, depth)
	}
	return w, x, frontier
}

// expandLevel expands every frontier entry into outgoing, reusing its
// buckets, and returns the transitions taken.
func expandLevel(tb testing.TB, w *Worker, x *explore.Expander, frontier []Entry, slices int, outgoing map[int][]Entry) int64 {
	for d := range outgoing {
		outgoing[d] = outgoing[d][:0]
	}
	var steps int64
	for i := range frontier {
		n, err := w.expandEntry(x, &frontier[i], slices, outgoing)
		if err != nil {
			tb.Fatal(err)
		}
		steps += n
	}
	return steps
}

// TestExpandEntryAllocs gates the shard worker's per-transition cost: with
// the stepper memo and codec warm, expanding a DiskRace n=4 level replays
// each entry's path through the packed Replayer and carves child paths
// from the slab, so the whole level costs a handful of allocations, not
// several per transition.
func TestExpandEntryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	const slices = 2
	w, x, frontier := levelFrontier(t, 4, slices, 10)
	outgoing := make(map[int][]Entry)
	steps := expandLevel(t, w, x, frontier, slices, outgoing)
	allocs := testing.AllocsPerRun(5, func() { expandLevel(t, w, x, frontier, slices, outgoing) })
	if perStep := allocs / float64(steps); perStep >= 0.01 {
		t.Fatalf("expanding %d entries (%d transitions) took %.0f allocations: %.4f per transition, want < 0.01", len(frontier), steps, allocs, perStep)
	}
	t.Logf("%d entries, %d transitions, %.1f allocations per level", len(frontier), steps, allocs)
}

// BenchmarkWorkerExpand expands one mid-depth DiskRace n=4 level through
// Worker.expandEntry, as a shard worker does once per level.
func BenchmarkWorkerExpand(b *testing.B) {
	const slices = 2
	w, x, frontier := levelFrontier(b, 4, slices, 12)
	outgoing := make(map[int][]Entry)
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps = expandLevel(b, w, x, frontier, slices, outgoing)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps*int64(b.N)), "ns/transition")
}
