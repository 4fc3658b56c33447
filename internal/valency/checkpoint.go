package valency

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/model"
)

// Memo export/import and in-flight query resume: the bridge between the
// oracle's memo maps and the checkpoint package's snapshot records.
//
// The memo is the payload that makes resume fast-forward deterministic: a
// resumed Theorem 1 construction re-runs from the top, every query answered
// before the crash hits the restored memo — returning the exact witness
// paths the original search found — and the construction replays to where
// it died without re-exploring anything. The optional in-flight QueryData
// additionally re-enters the one search the crash interrupted at its last
// completed BFS level instead of level 0.

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
		rec.Witness = make([][]model.Move, len(rec.Values))
		for i, val := range rec.Values {
			rec.Witness[i] = v.Witness[model.Value(val)]
		}
		d.Verdicts = append(d.Verdicts, rec)
	}
	slices.SortFunc(d.Verdicts, func(a, b checkpoint.VerdictRec) int {
		return cmp.Or(cmp.Compare(a.FP[0], b.FP[0]), cmp.Compare(a.FP[1], b.FP[1]), cmp.Compare(a.Pids, b.Pids))
	})
	for key, e := range m.solo {
		d.Solo = append(d.Solo, checkpoint.SoloRec{
			FP:   [2]uint64(key.fp),
			Pid:  key.pid,
			Err:  e.err,
			Val:  string(e.val),
			Path: e.path,
		})
	}
	slices.SortFunc(d.Solo, func(a, b checkpoint.SoloRec) int {
		return cmp.Or(cmp.Compare(a.FP[0], b.FP[0]), cmp.Compare(a.FP[1], b.FP[1]), cmp.Compare(a.Pid, b.Pid))
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
			v.Witness[model.Value(val)] = rec.Witness[i]
		}
		m.verdicts[queryKey{fp: explore.Fingerprint(rec.FP), pids: rec.Pids}] = v
	}
	for _, rec := range d.Solo {
		m.solo[soloKey{fp: explore.Fingerprint(rec.FP), pid: rec.Pid}] = &soloEntry{
			path: rec.Path,
			val:  model.Value(rec.Val),
			err:  rec.Err,
		}
	}
	return m, nil
}

// SetCheckpointer attaches a coordinator: the oracle registers its memo as
// the coordinator's memo source and offers in-flight snapshots at the BFS
// level boundaries of every search with one open candidate (searches over
// several never snapshot). A nil coordinator detaches.
func (o *Oracle) SetCheckpointer(c *checkpoint.Coordinator) {
	o.ckpt = c
	c.SetMemoSource(func() *checkpoint.MemoData { return ExportMemo(o.memo) })
}

// SetResume hands the oracle the in-flight query state of a loaded
// snapshot. The first search with one open candidate matching its (fingerprint,
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

// checkpointSearch wires a one-candidate search into the attached
// checkpointer: every BFS level boundary offers an in-flight snapshot,
// stamped with the query key, limit and the values found so far, and a
// pending loaded snapshot with that exact key and limit re-enters the
// search at its stored level, with the values it had already found
// pre-seeded into verdict and found.
func (o *Oracle) checkpointSearch(opts *explore.Options, key queryKey, limit int, verdict *Verdict, found map[model.Value]int) {
	if o.ckpt != nil {
		opts.Snapshot = func(sn *explore.Snapshotter) {
			o.ckpt.TickQuery(func() *checkpoint.QueryData {
				data := sn.Data()
				data.FP, data.Pids, data.MaxConfigs = key.fp, key.pids, limit
				for val, id := range found {
					data.Found = append(data.Found, checkpoint.Found{Value: string(val), ID: id})
				}
				sort.Slice(data.Found, func(i, j int) bool { return data.Found[i].Value < data.Found[j].Value })
				return data
			})
		}
	}
	if q := o.resume; q != nil && explore.Fingerprint(q.FP) == key.fp && q.Pids == key.pids && q.MaxConfigs == limit {
		o.resume = nil
		opts.ResumeFrom = q
		for _, f := range q.Found {
			val := model.Value(f.Value)
			if !verdict.Decidable[val] {
				verdict.Decidable[val] = true
				found[val] = f.ID
			}
		}
	}
}
