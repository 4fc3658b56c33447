package explore

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/model"
)

// Checkpoint/resume for an in-flight search. A search is frozen only at a
// BFS level boundary — the one point where the whole state is three plain
// structures (node forest, visited fingerprints, frontier ids) and no
// worker holds anything in flight. Snapshotter.Data writes them straight
// into the checkpoint package's QueryData, the record snapshots persist,
// and Options.ResumeFrom reads that record back. Configurations are never
// serialised: the frontier is stored as node ids and rebuilt on resume by
// replaying each node's witness path from the root (Replayer), which keeps
// the format protocol-independent.

// Snapshotter hands the Options.Snapshot hook access to the frozen search.
// Materialising the state costs a full copy of the node forest and visited
// set, so Data is a method, not a field: hooks that persist on a wall-clock
// interval check the clock first and call Data only when a save is due.
type Snapshotter struct {
	s     *search
	res   *Result
	level *frontier
	depth int
}

// Depth reports the BFS depth of the frontier about to be expanded.
func (sn *Snapshotter) Depth() int { return sn.depth }

// Count reports the configurations visited so far.
func (sn *Snapshotter) Count() int { return sn.res.Count }

// Data materialises the frozen search state: the search fields of a
// checkpoint.QueryData, leaving the query key and Found to the caller.
func (sn *Snapshotter) Data() *checkpoint.QueryData {
	cp := &checkpoint.QueryData{
		Depth:        sn.depth,
		Count:        sn.res.Count,
		Steps:        sn.res.Steps,
		PeakFrontier: sn.res.PeakFrontier,
		Nodes:        make([]checkpoint.Node, 0, sn.res.nodes.len()),
		Frontier:     make([]int, 0, sn.level.len()),
		Fingerprints: sn.s.visited.dump(),
	}
	for _, page := range sn.res.nodes.pages {
		for _, n := range page {
			cp.Nodes = append(cp.Nodes, checkpoint.Node{Parent: int(n.parent), Depth: int(n.depth), Move: model.UnpackMove(n.via)})
		}
	}
	for _, page := range sn.level.pages[:sn.level.used] {
		for _, id := range page.ids {
			cp.Frontier = append(cp.Frontier, int(id))
		}
	}
	return cp
}

// restore rebuilds the search state from a checkpoint: counters and node
// forest verbatim, the visited set from the fingerprint dump, and the
// frontier by replaying each stored id's path from the root through a
// Replayer, which shares the prefix each id has with the one before it.
// Already-visited configurations are not re-visited — the caller restored
// whatever it learned from them alongside the checkpoint.
func (s *search) restore(cp *checkpoint.QueryData, res *Result, level *frontier, root model.Config) error {
	if cp.Count != len(cp.Nodes) {
		return fmt.Errorf("explore: resume count %d != %d nodes", cp.Count, len(cp.Nodes))
	}
	if len(cp.Nodes) == 0 {
		return fmt.Errorf("explore: resume checkpoint has no nodes")
	}
	for i, n := range cp.Nodes {
		via, err := model.PackMove(n.Move)
		if err != nil {
			return fmt.Errorf("explore: resume node %d: %w", i, err)
		}
		res.nodes.add(node{parent: int32(n.Parent), depth: int32(n.Depth), via: via})
	}
	res.Count = cp.Count
	res.Steps = cp.Steps
	res.PeakFrontier = cp.PeakFrontier
	res.Depth = cp.Depth
	for _, fp := range cp.Fingerprints {
		s.visited.Add(Fingerprint(fp))
	}
	rp, err := NewReplayer(s.x, root)
	if err != nil {
		return fmt.Errorf("explore: resume frontier: %w", err)
	}
	var path []uint32
	for _, id := range cp.Frontier {
		var ok bool
		if path, ok = res.packedPathTo(path, id); !ok {
			return fmt.Errorf("explore: resume frontier: node id %d out of range", id)
		}
		rec, err := rp.Replay(path)
		if err != nil {
			return fmt.Errorf("explore: resume frontier: %w", err)
		}
		level.add(int32(id), rec)
	}
	return nil
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
