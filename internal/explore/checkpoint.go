package explore

import (
	"fmt"

	"repro/internal/model"
)

// Checkpoint/resume for an in-flight search. A search is frozen only at a
// BFS level boundary — the one point where the whole state is three plain
// structures (node forest, visited fingerprints, frontier ids) and no
// worker holds anything in flight. Configurations are never serialised:
// the frontier is stored as node ids and rebuilt on resume by replaying
// each node's witness path from the root, which keeps the format
// protocol-independent.

// CheckpointNode is the exported twin of the retained node record: parent
// id, BFS depth and the connecting move.
type CheckpointNode struct {
	Parent int32
	Depth  int32
	Via    model.Move
}

// LevelCheckpoint freezes a Reach search at a BFS level boundary: the
// frontier at Depth is about to be expanded, everything shallower has been
// visited. Produced by Snapshotter.Data, consumed by Options.ResumeFrom.
type LevelCheckpoint struct {
	// Depth is the BFS depth of the frontier below.
	Depth int
	// Count, Steps and PeakFrontier restore the Result counters.
	Count        int
	Steps        int
	PeakFrontier int
	// Nodes is the full parent/move forest of every visited configuration;
	// witness paths replay from it.
	Nodes []CheckpointNode
	// Frontier lists the node ids awaiting expansion, in visit order.
	Frontier []int32
	// Fingerprints is the visited set.
	Fingerprints []Fingerprint
}

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

// Data materialises the frozen search state. The error is non-nil only
// when a spilled frontier chunk cannot be read back.
func (sn *Snapshotter) Data() (*LevelCheckpoint, error) {
	frontierIDs, err := sn.level.allIDs()
	if err != nil {
		return nil, err
	}
	cp := &LevelCheckpoint{
		Depth:        sn.depth,
		Count:        sn.res.Count,
		Steps:        sn.res.Steps,
		PeakFrontier: sn.res.PeakFrontier,
		Frontier:     frontierIDs,
		Fingerprints: sn.s.visited.dump(),
		Nodes:        make([]CheckpointNode, len(sn.res.nodes)),
	}
	for i, n := range sn.res.nodes {
		cp.Nodes[i] = CheckpointNode{Parent: n.parent, Depth: n.depth, Via: model.UnpackMove(n.via)}
	}
	return cp, nil
}

// restore rebuilds the search state from a checkpoint: counters and node
// forest verbatim, the visited set from the fingerprint dump, and the
// frontier by replaying each stored id's path from the root configuration.
// Already-visited configurations are not re-visited — the caller restored
// whatever it learned from them alongside the checkpoint.
func (s *search) restore(cp *LevelCheckpoint, res *Result, level *frontier, root model.Config) error {
	if cp.Count != len(cp.Nodes) {
		return fmt.Errorf("explore: resume count %d != %d nodes", cp.Count, len(cp.Nodes))
	}
	if len(cp.Nodes) == 0 {
		return fmt.Errorf("explore: resume checkpoint has no nodes")
	}
	res.nodes = make([]node, len(cp.Nodes))
	for i, n := range cp.Nodes {
		via, err := model.PackMove(n.Via)
		if err != nil {
			return fmt.Errorf("explore: resume node %d: %w", i, err)
		}
		res.nodes[i] = node{parent: n.Parent, depth: n.Depth, via: via}
	}
	res.Count = cp.Count
	res.Steps = cp.Steps
	res.PeakFrontier = cp.PeakFrontier
	res.Depth = cp.Depth
	for _, fp := range cp.Fingerprints {
		s.visited.Add(fp)
	}
	level.ids = make([]int32, 0, len(cp.Frontier))
	level.words = make([]uint64, len(cp.Frontier)*s.stride)
	for i, id := range cp.Frontier {
		cfg, err := replayTo(res, root, int(id))
		if err != nil {
			return fmt.Errorf("explore: resume frontier: %w", err)
		}
		if err := s.codec.PackTo(level.words[i*s.stride:(i+1)*s.stride], cfg); err != nil {
			return fmt.Errorf("explore: resume frontier: %w", err)
		}
		level.ids = append(level.ids, id)
	}
	return nil
}

// replayTo rebuilds the configuration at node id by replaying its witness
// path from the root.
func replayTo(res *Result, root model.Config, id int) (model.Config, error) {
	path, ok := res.PathTo(id)
	if !ok {
		return model.Config{}, fmt.Errorf("node id %d out of range", id)
	}
	return model.RunPath(root, path), nil
}
