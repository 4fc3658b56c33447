package model

import (
	"fmt"
	"sort"
	"strings"
)

// A Schedule is a finite sequence of process identifiers: the order in which
// the adversary lets processes take steps (an element of Π* in the paper).
// For protocols with coin flips, coin outcomes are supplied separately; see
// Run.
type Schedule []int

// String renders the schedule as "p1 p4 p1 ...".
func (s Schedule) String() string {
	if len(s) == 0 {
		return "ε"
	}
	parts := make([]string, len(s))
	for i, pid := range s {
		parts[i] = fmt.Sprintf("p%d", pid)
	}
	return strings.Join(parts, " ")
}

// OnlyBy reports whether every step in the schedule is by a process in set.
func (s Schedule) OnlyBy(set map[int]bool) bool {
	for _, pid := range s {
		if !set[pid] {
			return false
		}
	}
	return true
}

// Participants returns the sorted set of processes that take at least one
// step in the schedule.
func (s Schedule) Participants() []int {
	seen := make(map[int]bool, len(s))
	for _, pid := range s {
		seen[pid] = true
	}
	out := make([]int, 0, len(seen))
	for pid := range seen {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// Concat returns the concatenation of schedules, left to right.
func Concat(schedules ...Schedule) Schedule {
	var n int
	for _, s := range schedules {
		n += len(s)
	}
	out := make(Schedule, 0, n)
	for _, s := range schedules {
		out = append(out, s...)
	}
	return out
}

// Solo returns the schedule in which process pid takes k consecutive steps.
func Solo(pid, k int) Schedule {
	out := make(Schedule, k)
	for i := range out {
		out[i] = pid
	}
	return out
}

// BlockWrite returns the block-write schedule for the covering processes r:
// each process in r performs exactly one step (its pending write), in
// ascending pid order. Per Definition 2, when the processes cover distinct
// registers the order is immaterial. The caller is responsible for ensuring
// every process in r actually covers a register; Run will apply whatever
// their pending operations are.
func BlockWrite(r []int) Schedule {
	sorted := append([]int(nil), r...)
	sort.Ints(sorted)
	return Schedule(sorted)
}

// Run applies the schedule to configuration c and returns the resulting
// configuration. It must only be used on coin-free steps. Decided processes
// scheduled again simply take no step, matching the convention in
// Config.Step.
func Run(c Config, s Schedule) Config {
	for _, pid := range s {
		c = c.StepDet(pid)
	}
	return c
}

// TraceStep records one applied step for reporting: which process moved,
// what operation it performed, and (for reads/coins) the value it observed.
type TraceStep struct {
	Pid int
	Op  Op
	// In is the value read (OpRead) or the coin outcome (OpCoin).
	In Value
}

// String renders the step, e.g. "p3: read(r1) -> \"0\"".
func (t TraceStep) String() string {
	switch t.Op.Kind {
	case OpRead:
		return fmt.Sprintf("p%d: %v -> %q", t.Pid, t.Op, string(t.In))
	case OpCoin:
		return fmt.Sprintf("p%d: coin() -> %q", t.Pid, string(t.In))
	default:
		return fmt.Sprintf("p%d: %v", t.Pid, t.Op)
	}
}

// RunTrace applies the schedule to c recording each step. Coin flips take
// outcome "0"; use this for deterministic protocols or reporting only.
func RunTrace(c Config, s Schedule) (Config, []TraceStep) {
	trace := make([]TraceStep, 0, len(s))
	for _, pid := range s {
		op := c.State(pid).Pending()
		step := TraceStep{Pid: pid, Op: op}
		switch op.Kind {
		case OpRead:
			step.In = c.Register(op.Reg)
		case OpCoin:
			step.In = "0"
		}
		trace = append(trace, step)
		c = c.Step(pid, step.In)
	}
	return c, trace
}

// PidSet converts a process list to a set.
func PidSet(pids []int) map[int]bool {
	set := make(map[int]bool, len(pids))
	for _, pid := range pids {
		set[pid] = true
	}
	return set
}

// PidList converts a process set to a sorted list.
func PidList(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for pid := range set {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// Without returns the sorted list of processes in p that are not in remove.
func Without(p []int, remove ...int) []int {
	rm := PidSet(remove)
	out := make([]int, 0, len(p))
	for _, pid := range p {
		if !rm[pid] {
			out = append(out, pid)
		}
	}
	sort.Ints(out)
	return out
}
