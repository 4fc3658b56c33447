package dist

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/model"
)

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
	x := explore.NewExpander(model.NewPackedCodec(run.Root), run.Opts)
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
