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

// Memo export/import: the bridge between the oracle's memo maps and the
// checkpoint package's snapshot records.
//
// The memo is the whole resume payload: a resumed Theorem 1 construction
// re-runs from the top, every query answered before the crash hits the
// restored memo — returning the exact witness paths the original search
// found — and the construction replays to where it died without
// re-exploring anything. The one query the crash interrupted, if any, runs
// again from its start.

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
// the coordinator's memo source and offers it a save opportunity after
// every query. A nil coordinator detaches.
func (o *Oracle) SetCheckpointer(c *checkpoint.Coordinator) {
	o.ckpt = c
	c.SetMemoSource(func() *checkpoint.MemoData { return ExportMemo(o.memo) })
}
