package explore

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/obs"
)

// maskedVisit is one visit of a search over several process sets.
type maskedVisit struct {
	ID, Depth int
	Mask      uint64
	Decided   string
}

// lemma1Sets returns DiskRace n=4 at a mid-depth configuration and the
// Lemma 1 candidate sets P-{z} for P all four processes.
func lemma1Sets() (model.Config, [][]int) {
	c := model.NewConfig(consensus.DiskRace{}, []model.Value{"0", "1", "1", "1"})
	for _, pid := range []int{0, 1, 2, 3, 1, 0, 2, 3} {
		c = model.Apply(c, model.Move{Pid: pid})
	}
	all := []int{0, 1, 2, 3}
	sets := make([][]int, len(all))
	for i, z := range all {
		sets[i] = model.Without(all, z)
	}
	return c, sets
}

// runMasked runs ReachSets over sets with a callback that closes a set
// once both binary values were decided under its bit, as the valency
// oracle does. It returns every visit and the sets left open.
func runMasked(t *testing.T, c model.Config, sets [][]int, opts Options) (*Result, []maskedVisit, uint64) {
	t.Helper()
	var visits []maskedVisit
	open := uint64(1)<<uint(len(sets)) - 1
	seen := make([]map[model.Value]bool, len(sets))
	for k := range seen {
		seen[k] = map[model.Value]bool{}
	}
	res, err := ReachSets(context.Background(), c, sets, opts, func(v Visit) uint64 {
		decided := v.Config.DecidedValues()
		visits = append(visits, maskedVisit{ID: v.ID, Depth: v.Depth, Mask: v.Mask, Decided: fmt.Sprint(decided)})
		for m := v.Mask & open; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			for val := range decided {
				seen[k][val] = true
			}
			if seen[k]["0"] && seen[k]["1"] {
				open &^= 1 << uint(k)
			}
		}
		return open
	})
	if err != nil && !errors.Is(err, ErrCapped) {
		t.Fatal(err)
	}
	return res, visits, open
}

// TestReachSetsDeterministic: a search over the Lemma 1 sets visits the
// same nodes — id, depth, mask and decided values — and counts the same
// configurations at one worker, at four workers with the pool thresholds
// forced low, and at one worker with a live obs scope. Every node's path
// is an execution of each set its mask names.
func TestReachSetsDeterministic(t *testing.T) {
	c, sets := lemma1Sets()
	base := Options{Canon: consensus.DiskRace{}, MaxConfigs: 5000}

	seq := base
	seq.Workers = 1
	wantRes, want, open := runMasked(t, c, sets, seq)
	if open == 0 || open == 1<<len(sets)-1 {
		t.Fatalf("sets left open %04b: want some but not all closed mid-search", open)
	}
	for _, v := range want {
		path, ok := wantRes.PathTo(v.ID)
		if !ok || len(path) != v.Depth {
			t.Fatalf("node %d: path %v (ok=%v) at depth %d", v.ID, path, ok, v.Depth)
		}
		for m := v.Mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			for _, mv := range path {
				if mv.Pid == sets[k][0] || mv.Pid == sets[k][1] || mv.Pid == sets[k][2] {
					continue
				}
				t.Fatalf("node %d: mask %b names set %v, but its path moves p%d", v.ID, v.Mask, sets[k], mv.Pid)
			}
		}
	}

	forcePool(t)
	par := base
	par.Workers = 4
	observed := seq
	observed.Obs = obs.NewScope(nil)
	for name, opts := range map[string]Options{"workers4": par, "obs": observed} {
		res, got, _ := runMasked(t, c, sets, opts)
		if res.Count != wantRes.Count || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d visits of %d configurations differ from the sequential %d of %d", name, len(got), res.Count, len(want), wantRes.Count)
		}
	}
}

// echoMachine's processes all write their input to register 0 forever
// without changing state, so from a start with equal inputs every step of
// every process reaches the same configuration.
type echoMachine struct{}

func (echoMachine) Name() string                                   { return "echo" }
func (echoMachine) Registers(int) int                              { return 1 }
func (echoMachine) Init(n, pid int, input model.Value) model.State { return echoState(input) }

type echoState model.Value

func (s echoState) Pending() model.Op {
	return model.Op{Kind: model.OpWrite, Reg: 0, Arg: model.Value(s)}
}
func (s echoState) Next(model.Value) model.State { return s }
func (s echoState) Key() string                  { return string(s) }

// TestReachSetsRevisitsNewBits pins the mask rules on echoMachine with the
// sets {0,1}, {0,2} and {1,2}. p0's step reaches the one successor with
// the sets holding p0; p1's step reaches it again and adds {1,2}, so it is
// a second node; p2's step adds nothing. Later steps add nothing either.
func TestReachSetsRevisitsNewBits(t *testing.T) {
	c := model.NewConfig(echoMachine{}, []model.Value{"1", "1", "1"})
	sets := [][]int{{0, 1}, {0, 2}, {1, 2}}
	var got []maskedVisit
	res, err := ReachSets(context.Background(), c, sets, Options{}, func(v Visit) uint64 {
		got = append(got, maskedVisit{ID: v.ID, Depth: v.Depth, Mask: v.Mask})
		return 0b111
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []maskedVisit{{0, 0, 0b111, ""}, {1, 1, 0b011, ""}, {2, 1, 0b101, ""}}
	if !reflect.DeepEqual(got, want) || res.Count != 2 {
		t.Fatalf("visits %v, Count %d; want %v, Count 2", got, res.Count, want)
	}
	if path, _ := res.PathTo(2); !reflect.DeepEqual(path, model.Path{{Pid: 1}}) {
		t.Fatalf("node 2 path %v, want p1's step", path)
	}
}
