package explore

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"repro/internal/model"
)

// chain is a machine where each process counts down from its input by
// writing successive values to its own register: a line graph per process,
// giving predictable reachable-space sizes (product of budgets+1, roughly).
type chainMachine struct{}

func (chainMachine) Name() string        { return "chain" }
func (chainMachine) Registers(n int) int { return n }
func (chainMachine) Init(n, pid int, input model.Value) model.State {
	budget, _ := strconv.Atoi(string(input))
	return chainState{pid: pid, left: budget}
}

type chainState struct {
	pid, left int
}

func (s chainState) Pending() model.Op {
	if s.left == 0 {
		return model.Op{Kind: model.OpDecide, Arg: "done"}
	}
	return model.Op{Kind: model.OpWrite, Reg: s.pid, Arg: model.Value(strconv.Itoa(s.left))}
}

func (s chainState) Next(model.Value) model.State {
	return chainState{pid: s.pid, left: s.left - 1}
}

func (s chainState) Key() string {
	return "c" + strconv.Itoa(s.pid) + "." + strconv.Itoa(s.left)
}

// coinMachine flips one coin then decides the outcome.
type coinMachine struct{}

func (coinMachine) Name() string        { return "coin" }
func (coinMachine) Registers(n int) int { return 1 }
func (coinMachine) Init(n, pid int, input model.Value) model.State {
	return coinState{}
}

type coinState struct {
	flipped bool
	out     model.Value
}

func (s coinState) Pending() model.Op {
	if !s.flipped {
		return model.Op{Kind: model.OpCoin}
	}
	return model.Op{Kind: model.OpDecide, Arg: s.out}
}

func (s coinState) Next(in model.Value) model.State {
	return coinState{flipped: true, out: in}
}

func (s coinState) Key() string {
	return "f" + string(s.out) + strconv.FormatBool(s.flipped)
}

func TestReachCountsLineGraph(t *testing.T) {
	// Two processes with budgets 2 and 3: states (3 options) x (4 options)
	// = 12 configurations.
	c := model.NewConfig(chainMachine{}, []model.Value{"2", "3"})
	res, err := Reach(context.Background(), c, []int{0, 1}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 12 {
		t.Fatalf("Count = %d, want 12", res.Count)
	}
	if res.Capped {
		t.Fatal("unexpected cap")
	}
}

func TestReachRestrictedProcessSet(t *testing.T) {
	c := model.NewConfig(chainMachine{}, []model.Value{"2", "3"})
	res, err := Reach(context.Background(), c, []int{1}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4 {
		t.Fatalf("p1-only Count = %d, want 4", res.Count)
	}
}

func TestReachCapErrors(t *testing.T) {
	c := model.NewConfig(chainMachine{}, []model.Value{"9", "9"})
	_, err := Reach(context.Background(), c, []int{0, 1}, Options{MaxConfigs: 10}, nil)
	if !errors.Is(err, ErrCapped) {
		t.Fatalf("err = %v, want ErrCapped", err)
	}
}

func TestReachDepthCap(t *testing.T) {
	c := model.NewConfig(chainMachine{}, []model.Value{"9", "9"})
	res, err := Reach(context.Background(), c, []int{0, 1}, Options{MaxDepth: 2}, nil)
	if !errors.Is(err, ErrCapped) {
		t.Fatalf("err = %v, want ErrCapped", err)
	}
	// Depth ≤ 2 over two line graphs: 1 + 2 + 3 = 6 configurations.
	if res.Count != 6 {
		t.Fatalf("Count = %d, want 6", res.Count)
	}
}

func TestReachVisitStop(t *testing.T) {
	c := model.NewConfig(chainMachine{}, []model.Value{"5", "5"})
	calls := 0
	_, err := Reach(context.Background(), c, []int{0, 1}, Options{}, func(Visit) bool {
		calls++
		return calls < 3
	})
	if !errors.Is(err, ErrCapped) {
		t.Fatalf("err = %v, want ErrCapped", err)
	}
	if calls != 3 {
		t.Fatalf("visit called %d times, want 3", calls)
	}
}

func TestPathToReplays(t *testing.T) {
	c := model.NewConfig(chainMachine{}, []model.Value{"2", "2"})
	target := -1
	res, err := Reach(context.Background(), c, []int{0, 1}, Options{}, func(v Visit) bool {
		if len(v.Config.DecidedValues()) > 0 && v.Config.Register(0) == "1" {
			if _, ok := v.Config.Decided(1); ok {
				target = v.ID
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if target < 0 {
		t.Fatal("target configuration not found")
	}
	path, ok := res.PathTo(target)
	if !ok {
		t.Fatal("PathTo failed")
	}
	replayed := model.RunPath(c, path)
	if _, ok := replayed.Decided(1); !ok || replayed.Register(0) != "1" {
		t.Fatalf("replayed path does not reproduce the target: %v", replayed.Registers())
	}
	if _, ok := res.PathTo(1 << 30); ok {
		t.Fatal("PathTo out of range should fail")
	}
}

func TestMovesBranchesOnCoins(t *testing.T) {
	c := model.NewConfig(coinMachine{}, []model.Value{"", ""})
	moves := Moves(c, []int{0, 1})
	if len(moves) != 4 {
		t.Fatalf("got %d moves, want 4 (two per coin flipper)", len(moves))
	}
	res, err := Reach(context.Background(), c, []int{0, 1}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each process independently lands on "0" or "1": 3 states per
	// process (unflipped, 0, 1) = 9 configurations.
	if res.Count != 9 {
		t.Fatalf("Count = %d, want 9", res.Count)
	}
}

func TestFingerprintDistinctness(t *testing.T) {
	seen := make(map[Fingerprint]string)
	for i := 0; i < 100000; i++ {
		key := strconv.Itoa(i)
		fp := fingerprintOf(key)
		if prev, ok := seen[fp]; ok {
			t.Fatalf("fingerprint collision between %q and %q", prev, key)
		}
		seen[fp] = key
	}
}

// TestResultDepthReported checks the new Depth counter against the known
// longest schedule of the chain machine (budgets sum).
func TestResultDepthReported(t *testing.T) {
	c := model.NewConfig(chainMachine{}, []model.Value{"2", "3"})
	res, err := Reach(context.Background(), c, []int{0, 1}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 5 {
		t.Fatalf("Depth = %d, want 5", res.Depth)
	}
}
