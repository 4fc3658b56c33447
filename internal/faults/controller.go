package faults

import (
	"math/rand"
	"sort"
	"sync"
)

// Controller enforces a Plan on live goroutines via per-process gates. Every
// shared-register operation of every process passes through Acquire/Release,
// and the controller serialises them into a single seeded, bursty schedule:
// at any moment exactly one process holds the turn, turns are granted in
// bursts (so obstruction-free protocols get the solo windows they need to
// terminate), and the plan's fault events fire at exact per-process
// operation indices. Because every scheduling decision is drawn from the
// plan's seed at points totally ordered by the turn itself, replaying the
// same plan yields the identical operation order, identical decisions and
// identical register statistics — real goroutines, model-grade determinism.
//
// Semantics on live goroutines:
//
//   - CrashStop without a revive: the gate reports ErrCrashed and the
//     process's goroutine unwinds (via the Array handle's CrashSignal).
//   - CrashStop with a pending Revive: the gate blocks — the process
//     freezes mid-protocol and resumes in place at the revive point
//     (crash-recovery; nothing local is lost).
//   - Stall: the process is ineligible for the turn until the stall's
//     global-operation window passes.
//   - CrashAmidWrite: the write lands in shared memory first; the crash is
//     reported (or the freeze happens) immediately after.
//
// A Revive whose global step passes before its process crashes is consumed
// as a no-op; plans are expected to order revives after the crash point.
type Controller struct {
	mu   sync.Mutex
	cond *sync.Cond
	rng  *rand.Rand

	n        int
	burstMax int
	procs    []gateState
	revives  []Event
	revCur   int

	turn      int
	burst     int
	globalOps int
	aborted   bool
}

// gateState is the controller's per-process bookkeeping.
type gateState struct {
	events       []Event // per-process-indexed events, sorted by Step
	cursor       int
	ops          int
	crashed      bool
	crashNext    bool // CrashAmidWrite fired; crash after the granted op
	stalledUntil int  // global op count before which the process stands aside
	exited       bool
}

// NewController returns a controller for n processes executing the plan.
// All n processes are registered up front (registration order must not
// depend on goroutine scheduling, or determinism would be lost).
func NewController(n int, plan Plan) (*Controller, error) {
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	c := &Controller{
		rng:      rand.New(rand.NewSource(plan.Seed)),
		n:        n,
		burstMax: 3*n + 3,
		procs:    make([]gateState, n),
		turn:     -1,
	}
	c.cond = sync.NewCond(&c.mu)
	for _, e := range plan.Events {
		if e.Kind == Revive {
			c.revives = append(c.revives, e)
			continue
		}
		c.procs[e.Pid].events = append(c.procs[e.Pid].events, e)
	}
	sort.SliceStable(c.revives, func(i, j int) bool { return c.revives[i].Step < c.revives[j].Step })
	c.mu.Lock()
	c.advance()
	c.mu.Unlock()
	return c, nil
}

// Abort releases every gate with ErrAborted — the watchdog path for runs
// that stop making progress (e.g. a plan that crashes every process).
func (c *Controller) Abort() {
	c.mu.Lock()
	c.aborted = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Acquire blocks until process pid may perform its next register operation.
// isWrite tells the controller whether the upcoming operation is a write
// (CrashAmidWrite events degrade to CrashStop on non-writes). It returns
// ErrCrashed if the plan halts the process here, ErrAborted after Abort.
func (c *Controller) Acquire(pid int, isWrite bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.aborted {
			return ErrAborted
		}
		ps := &c.procs[pid]
		if ps.crashed {
			if c.hasPendingRevive(pid) {
				c.cond.Wait()
				continue
			}
			return ErrCrashed
		}
		if ps.stalledUntil > c.globalOps {
			if c.turn == pid {
				c.advance()
				c.cond.Broadcast()
			}
			c.cond.Wait()
			continue
		}
		if c.turn != pid {
			c.cond.Wait()
			continue
		}
		// pid holds the turn: fire its events due at this operation.
		fired := false
		for ps.cursor < len(ps.events) && ps.events[ps.cursor].Step <= ps.ops {
			ev := ps.events[ps.cursor]
			ps.cursor++
			switch ev.Kind {
			case CrashStop:
				ps.crashed = true
			case Stall:
				ps.stalledUntil = c.globalOps + ev.Duration
			case CrashAmidWrite:
				if isWrite {
					ps.crashNext = true
				} else {
					ps.crashed = true
				}
			}
			fired = true
			if ps.crashed {
				break
			}
		}
		if fired && (ps.crashed || ps.stalledUntil > c.globalOps) {
			c.advance()
			c.cond.Broadcast()
			continue // the loop turns the new state into wait/ErrCrashed
		}
		return nil
	}
}

// Release completes the operation Acquire granted. It returns ErrCrashed
// when a CrashAmidWrite event halts the process now that its write has
// landed (or nil after an in-place revive of such a crash).
func (c *Controller) Release(pid int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := &c.procs[pid]
	ps.ops++
	c.globalOps++
	c.processRevives()
	c.burst--
	if ps.crashNext {
		ps.crashNext = false
		ps.crashed = true
		// Record the revive prospect before advance(): its fast-forward
		// may consume the revive (and clear the crash) immediately.
		hadRevive := c.hasPendingRevive(pid)
		c.advance()
		c.cond.Broadcast()
		if !hadRevive {
			return ErrCrashed
		}
		for ps.crashed && !c.aborted {
			c.cond.Wait()
		}
		if c.aborted {
			return ErrAborted
		}
		return nil
	}
	if c.burst <= 0 || !c.eligible(pid) {
		c.advance()
	}
	c.cond.Broadcast()
	return nil
}

// Exit removes a finished process (decided, crashed or aborted) from the
// schedule. For a live process the exit itself is turn-synchronised, so the
// seeded schedule stays deterministic.
func (c *Controller) Exit(pid int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := &c.procs[pid]
	if ps.exited {
		return
	}
	if !ps.crashed && !c.aborted {
		for c.turn != pid && !c.aborted {
			c.cond.Wait()
		}
	}
	ps.exited = true
	if c.turn == pid {
		c.advance()
	}
	c.cond.Broadcast()
}

// eligible reports whether pid can be granted the turn. Callers hold mu.
func (c *Controller) eligible(pid int) bool {
	ps := &c.procs[pid]
	return !ps.exited && !ps.crashed && ps.stalledUntil <= c.globalOps
}

// hasPendingRevive reports whether an unfired revive targets pid. Callers
// hold mu.
func (c *Controller) hasPendingRevive(pid int) bool {
	for i := c.revCur; i < len(c.revives); i++ {
		if c.revives[i].Pid == pid {
			return true
		}
	}
	return false
}

// processRevives fires revives due at the current global op count. Callers
// hold mu.
func (c *Controller) processRevives() {
	for c.revCur < len(c.revives) && c.revives[c.revCur].Step <= c.globalOps {
		ev := c.revives[c.revCur]
		c.revCur++
		ps := &c.procs[ev.Pid]
		if ps.crashed && !ps.exited {
			ps.crashed = false
			ps.crashNext = false
		}
	}
}

// advance grants the turn to a seeded-random eligible process with a fresh
// burst, fast-forwarding the global clock past stalls and revive points when
// no process can move right now. Callers hold mu; every call site is totally
// ordered by the turn discipline, which is what keeps the rng stream — and
// therefore the whole schedule — reproducible.
func (c *Controller) advance() {
	for {
		c.processRevives()
		var cands []int
		for pid := 0; pid < c.n; pid++ {
			if c.eligible(pid) {
				cands = append(cands, pid)
			}
		}
		if len(cands) > 0 {
			c.turn = cands[c.rng.Intn(len(cands))]
			c.burst = 1 + c.rng.Intn(c.burstMax)
			return
		}
		// Nobody can move now: jump to the nearest stall expiry or
		// revive point, if any.
		next := -1
		for pid := 0; pid < c.n; pid++ {
			ps := &c.procs[pid]
			if ps.exited || ps.crashed {
				continue
			}
			if ps.stalledUntil > c.globalOps && (next < 0 || ps.stalledUntil < next) {
				next = ps.stalledUntil
			}
		}
		if c.revCur < len(c.revives) {
			if r := c.revives[c.revCur].Step; next < 0 || r < next {
				next = r
			}
		}
		if next < 0 || next <= c.globalOps {
			c.turn, c.burst = -1, 0
			return
		}
		c.globalOps = next
		c.processRevives()
	}
}
