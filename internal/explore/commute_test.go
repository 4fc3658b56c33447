package explore

import (
	"flag"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
)

var commuteConfigs = flag.Int("commute.configs", 50_000,
	"configurations TestCommutingDuplicateShare explores per DiskRace run; the recorded shares used 2097152")

// commuteStats is what commutingDuplicates observed: transitions examined,
// configurations visited, transitions that rebuilt a packed record already
// produced (raw duplicates), and the raw duplicates whose last two steps
// commute.
type commuteStats struct {
	steps, configs, rawDups, commuting int
}

// share returns the commuting raw duplicates as a fraction of all raw
// duplicates.
func (s commuteStats) share() float64 {
	if s.rawDups == 0 {
		return 0
	}
	return float64(s.commuting) / float64(s.rawDups)
}

// commuteEntry is a frontier entry of commutingDuplicates: a record, its
// parent's record and the step between them, with that step's pending
// operation at the parent.
type commuteEntry struct {
	rec, parent []uint64
	via         model.Move
	kind        model.OpKind
	reg         int
}

// independent reports whether steps a and b of different processes
// commute at the register level: one is local (a coin flip), they touch
// different registers, or both are reads.
func independent(a, b commuteEntry) bool {
	if a.via.Pid == b.via.Pid {
		return false
	}
	if a.kind == model.OpCoin || b.kind == model.OpCoin {
		return true
	}
	return a.reg != b.reg || (a.kind == model.OpRead && b.kind == model.OpRead)
}

// commutingDuplicates runs the P-only BFS of Reach at one worker, with an
// exact raw-duplicate set in place of the bounded cache, stopping at
// maxConfigs configurations. For every raw duplicate t·y, where t = s·x
// is the parent and x the step that produced it, it checks whether x and
// y are independent; if so s·y·x is the same record, so the duplicate is
// one a commuting diamond explains, and the helper steps s·y·x to confirm
// it. It is the measurement behind ROADMAP item 2's sleep-set step: the
// share of raw duplicates a partial-order reduction could avoid stepping.
func commutingDuplicates(t *testing.T, c model.Config, p []int, opts Options, maxConfigs int) commuteStats {
	t.Helper()
	codec := model.NewCanonCodec(c, opts.Canon)
	x := NewExpander(codec, opts)
	visited, raw := NewLocalFPSet(), NewLocalFPSet()
	root, err := x.Pack(c)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := x.Fingerprint(root)
	if err != nil {
		t.Fatal(err)
	}
	visited.Add(fp)
	raw.Add(mixWords(root))
	st := commuteStats{configs: 1}
	level := []commuteEntry{{rec: slices.Clone(root), via: model.Move{Pid: -1}}}
	var sy []uint64
	for len(level) > 0 {
		var next []commuteEntry
		for _, ent := range level {
			for _, m := range x.Moves(ent.rec, p) {
				kind, reg := x.stepper.Op(codec.StateID(ent.rec, m.Pid))
				step := commuteEntry{via: m, kind: kind, reg: reg}
				st.steps++
				child, err := x.Step(ent.rec, m)
				if err != nil {
					t.Fatal(err)
				}
				if !raw.Add(mixWords(child)) {
					st.rawDups++
					if ent.via.Pid >= 0 && independent(ent, step) {
						st.commuting++
						// s·y·x must rebuild the duplicate exactly.
						y, err := x.Step(ent.parent, m)
						if err != nil {
							t.Fatal(err)
						}
						sy = append(sy[:0], y...)
						syx, err := x.Step(sy, ent.via)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(syx, child) {
							t.Fatalf("steps %v and %v judged independent do not commute", ent.via, m)
						}
						// Step reuses its scratch: rebuild the child.
						if child, err = x.Step(ent.rec, m); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				fp, err := x.Fingerprint(child)
				if err != nil {
					t.Fatal(err)
				}
				if !visited.Add(fp) {
					continue
				}
				st.configs++
				step.rec, step.parent = slices.Clone(child), ent.rec
				next = append(next, step)
				if st.configs >= maxConfigs {
					return st
				}
			}
		}
		level = next
	}
	return st
}

// TestCommutingDuplicateShare measures, on DiskRace at n=4 and n=5, which
// share of the raw-duplicate transitions commuting steps explain, and
// checks on the way that every pair judged independent does commute. Its
// -commute.configs flag sets the configurations per run.
func TestCommutingDuplicateShare(t *testing.T) {
	disk := consensus.DiskRace{}
	for _, inputs := range [][]model.Value{{"0", "1", "1", "1"}, {"0", "1", "1", "1", "1"}} {
		c := model.NewConfig(disk, inputs)
		all := make([]int, len(inputs))
		for pid := range all {
			all[pid] = pid
		}
		st := commutingDuplicates(t, c, all, Options{Canon: disk}, *commuteConfigs)
		if st.rawDups == 0 || st.commuting == 0 {
			t.Fatalf("n=%d: %d raw duplicates, %d commuting: nothing measured", len(inputs), st.rawDups, st.commuting)
		}
		t.Logf("DiskRace n=%d: %d configs, %d steps, %d raw duplicates, %d commuting (share %.3f)",
			len(inputs), st.configs, st.steps, st.rawDups, st.commuting, st.share())
	}
}
