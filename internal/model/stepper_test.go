package model

import "testing"

// mixState is a test machine exercising every operation kind the packed
// stepper handles: a coin flip, a swap, a read, then a decision.
type mixState struct {
	n, pid int
	input  Value
	stage  int
	coin   Value
	got    Value
}

type mixMachine struct{}

func (mixMachine) Name() string        { return "mix" }
func (mixMachine) Registers(n int) int { return n }
func (mixMachine) Init(n, pid int, input Value) State {
	return mixState{n: n, pid: pid, input: input}
}

func (s mixState) Pending() Op {
	switch s.stage {
	case 0:
		return Op{Kind: OpCoin}
	case 1:
		return Op{Kind: OpSwap, Reg: s.pid, Arg: s.input + s.coin}
	case 2:
		return Op{Kind: OpRead, Reg: (s.pid + 1) % s.n}
	default:
		out := s.got
		if out == Bottom {
			out = s.coin
		}
		return Op{Kind: OpDecide, Arg: out}
	}
}

func (s mixState) Next(in Value) State {
	next := s
	next.stage++
	switch s.stage {
	case 0:
		next.coin = in
	case 1, 2:
		next.got = in
	}
	return next
}

func (s mixState) Key() string {
	return "m" + string(rune('0'+s.pid)) + string(rune('0'+s.stage)) +
		"|" + string(s.input) + "|" + string(s.coin) + "|" + string(s.got)
}

func mixConfig() Config {
	return NewConfig(mixMachine{}, []Value{"a", "b"})
}

// walkMix enumerates the reachable mix-machine space, branching on both
// coin outcomes, and hands each configuration to check.
func walkMix(t *testing.T, root Config, check func(Config)) {
	t.Helper()
	seen := map[string]bool{root.Key(): true}
	queue := []Config{root}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		check(c)
		for pid := 0; pid < c.NumProcesses(); pid++ {
			kind, _ := PeekOp(c.State(pid))
			if kind == OpDecide {
				continue
			}
			outcomes := []Value{Bottom}
			if kind == OpCoin {
				outcomes = []Value{"0", "1"}
			}
			for _, coin := range outcomes {
				child := c.Step(pid, coin)
				if !seen[child.Key()] {
					seen[child.Key()] = true
					queue = append(queue, child)
				}
			}
		}
	}
	if len(seen) < 20 {
		t.Fatalf("mix walk saw only %d configurations", len(seen))
	}
}

// TestStepPackedMatchesStep is the stepper's soundness property: on every
// reachable configuration, every process and coin outcome, StepPacked's
// record decodes to a configuration whose key is byte-identical to
// Config.Step's — across coins, swaps, reads, and writes (toy machine).
func TestStepPackedMatchesStep(t *testing.T) {
	for _, tc := range []struct {
		name string
		root Config
	}{
		{"mix", mixConfig()},
		{"toy", toyConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pc := NewPackedCodec(tc.root)
			ps := pc.NewStepper()
			src := make([]uint64, pc.Words())
			dst := make([]uint64, pc.Words())
			walkMix(t, tc.root, func(c Config) {
				if err := pc.PackTo(src, c); err != nil {
					t.Fatal(err)
				}
				for pid := 0; pid < c.NumProcesses(); pid++ {
					kind, _ := ps.Op(pc.StateID(src, pid))
					if wantKind, _ := PeekOp(c.State(pid)); kind != wantKind {
						t.Fatalf("p%d: stepper op %v, state op %v", pid, kind, wantKind)
					}
					if kind == OpDecide {
						continue
					}
					outcomes := []Value{Bottom}
					if kind == OpCoin {
						outcomes = []Value{"0", "1"}
					}
					for _, coin := range outcomes {
						if err := ps.StepPacked(dst, src, pid, coin); err != nil {
							t.Fatal(err)
						}
						got, err := pc.Unpack(dst)
						if err != nil {
							t.Fatal(err)
						}
						want := c.Step(pid, coin)
						if got.Key() != want.Key() {
							t.Fatalf("p%d coin=%q: packed step key %q, Step key %q",
								pid, string(coin), got.Key(), want.Key())
						}
					}
				}
			})
		})
	}
}
