package valency

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/model"
)

// Memo export/import and in-flight query resume: the bridge between the
// oracle's typed state and the checkpoint package's plain-schema snapshots.
//
// The memo is the payload that makes resume fast-forward deterministic: a
// resumed Theorem 1 construction re-runs from the top, every query answered
// before the crash hits the restored memo — returning the exact witness
// paths the original search found — and the construction replays to where
// it died without re-exploring anything. The optional in-flight QueryData
// additionally re-enters the one search the crash interrupted at its last
// completed BFS level instead of level 0.

func pathToMoves(p model.Path) []checkpoint.Move {
	if p == nil {
		return nil
	}
	out := make([]checkpoint.Move, len(p))
	for i, m := range p {
		out[i] = checkpoint.Move{Pid: m.Pid, Coin: string(m.Coin)}
	}
	return out
}

func movesToPath(ms []checkpoint.Move) model.Path {
	if ms == nil {
		return nil
	}
	out := make(model.Path, len(ms))
	for i, m := range ms {
		out[i] = model.Move{Pid: m.Pid, Coin: model.Value(m.Coin)}
	}
	return out
}

// ExportMemo converts the memo tables to the checkpoint schema. Records
// are emitted in sorted key order so identical memos serialise identically.
func ExportMemo(m *Memo) *checkpoint.MemoData {
	d := &checkpoint.MemoData{}
	for key, v := range m.verdicts {
		rec := checkpoint.VerdictRec{FP: [2]uint64(key.fp), Pids: key.pids}
		for val := range v.Decidable {
			rec.Values = append(rec.Values, string(val))
		}
		sort.Strings(rec.Values)
		rec.Witness = make([][]checkpoint.Move, len(rec.Values))
		for i, val := range rec.Values {
			rec.Witness[i] = pathToMoves(v.Witness[model.Value(val)])
		}
		d.Verdicts = append(d.Verdicts, rec)
	}
	sort.Slice(d.Verdicts, func(i, j int) bool {
		a, b := d.Verdicts[i], d.Verdicts[j]
		if a.FP != b.FP {
			return a.FP[0] < b.FP[0] || (a.FP[0] == b.FP[0] && a.FP[1] < b.FP[1])
		}
		return a.Pids < b.Pids
	})
	for key, e := range m.solo {
		d.Solo = append(d.Solo, checkpoint.SoloRec{
			FP:   [2]uint64(key.fp),
			Pid:  key.pid,
			Err:  e.err,
			Val:  string(e.val),
			Path: pathToMoves(e.path),
		})
	}
	sort.Slice(d.Solo, func(i, j int) bool {
		a, b := d.Solo[i], d.Solo[j]
		if a.FP != b.FP {
			return a.FP[0] < b.FP[0] || (a.FP[0] == b.FP[0] && a.FP[1] < b.FP[1])
		}
		return a.Pid < b.Pid
	})
	return d
}

// ImportMemo rebuilds memo tables from a snapshot. The caller owns the
// guarantee that the snapshot's exploration options match the live run's
// (checkpoint.Meta records them for that comparison).
func ImportMemo(d *checkpoint.MemoData) (*Memo, error) {
	m := NewMemo()
	if d == nil {
		return m, nil
	}
	for _, rec := range d.Verdicts {
		if len(rec.Witness) != len(rec.Values) {
			return nil, fmt.Errorf("valency: memo verdict has %d witnesses for %d values", len(rec.Witness), len(rec.Values))
		}
		v := newVerdict()
		for i, val := range rec.Values {
			v.Decidable[model.Value(val)] = true
			v.Witness[model.Value(val)] = movesToPath(rec.Witness[i])
		}
		m.verdicts[queryKey{fp: explore.Fingerprint(rec.FP), pids: rec.Pids}] = v
	}
	for _, rec := range d.Solo {
		m.solo[soloKey{fp: explore.Fingerprint(rec.FP), pid: rec.Pid}] = &soloEntry{
			path: movesToPath(rec.Path),
			val:  model.Value(rec.Val),
			err:  rec.Err,
		}
	}
	return m, nil
}

// SetCheckpointer attaches a coordinator: the oracle registers its memo as
// the coordinator's memo source and offers in-flight snapshots at the BFS
// level boundaries of every one-candidate query's Reach search (batches of
// several candidates never snapshot). A nil coordinator detaches.
func (o *Oracle) SetCheckpointer(c *checkpoint.Coordinator) {
	o.ckpt = c
	c.SetMemoSource(func() *checkpoint.MemoData { return ExportMemo(o.memo) })
}

// SetResume hands the oracle the in-flight query state of a loaded
// snapshot. The first one-candidate search matching its (fingerprint,
// process set, effective cap) re-enters the search at the stored BFS level; in a
// deterministic replay that is exactly the query the crash interrupted,
// since every earlier query hits the restored memo.
func (o *Oracle) SetResume(q *checkpoint.QueryData) {
	o.resume = q
}

// effectiveMax is the cap Reach will actually apply under opts, the value
// in-flight snapshots are keyed by.
func effectiveMax(opts explore.Options) int {
	if opts.MaxConfigs <= 0 {
		return explore.DefaultMaxConfigs
	}
	return opts.MaxConfigs
}

// buildQueryData freezes one one-candidate search for a snapshot.
func buildQueryData(key queryKey, maxConfigs int, data *explore.LevelCheckpoint, witnessIDs map[model.Value]int) *checkpoint.QueryData {
	q := &checkpoint.QueryData{
		FP:           [2]uint64(key.fp),
		Pids:         key.pids,
		MaxConfigs:   maxConfigs,
		Depth:        data.Depth,
		Count:        data.Count,
		Steps:        data.Steps,
		PeakFrontier: data.PeakFrontier,
		Nodes:        make([]checkpoint.Node, len(data.Nodes)),
		Frontier:     make([]int, len(data.Frontier)),
		Fingerprints: make([][2]uint64, len(data.Fingerprints)),
	}
	for i, n := range data.Nodes {
		q.Nodes[i] = checkpoint.Node{
			Parent: int(n.Parent),
			Depth:  int(n.Depth),
			Move:   checkpoint.Move{Pid: n.Via.Pid, Coin: string(n.Via.Coin)},
		}
	}
	for i, id := range data.Frontier {
		q.Frontier[i] = int(id)
	}
	for i, fp := range data.Fingerprints {
		q.Fingerprints[i] = fp
	}
	for val, id := range witnessIDs {
		q.Found = append(q.Found, checkpoint.Found{Value: string(val), ID: id})
	}
	sort.Slice(q.Found, func(i, j int) bool { return q.Found[i].Value < q.Found[j].Value })
	return q
}

// restoreQueryData converts a loaded in-flight query back into the explore
// checkpoint form.
func restoreQueryData(q *checkpoint.QueryData) *explore.LevelCheckpoint {
	cp := &explore.LevelCheckpoint{
		Depth:        q.Depth,
		Count:        q.Count,
		Steps:        q.Steps,
		PeakFrontier: q.PeakFrontier,
		Nodes:        make([]explore.CheckpointNode, len(q.Nodes)),
		Frontier:     make([]int32, len(q.Frontier)),
		Fingerprints: make([]explore.Fingerprint, len(q.Fingerprints)),
	}
	for i, n := range q.Nodes {
		cp.Nodes[i] = explore.CheckpointNode{
			Parent: int32(n.Parent),
			Depth:  int32(n.Depth),
			Via:    model.Move{Pid: n.Move.Pid, Coin: model.Value(n.Move.Coin)},
		}
	}
	for i, id := range q.Frontier {
		cp.Frontier[i] = int32(id)
	}
	for i, fp := range q.Fingerprints {
		cp.Fingerprints[i] = explore.Fingerprint(fp)
	}
	return cp
}
