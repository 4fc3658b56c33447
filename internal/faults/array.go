package faults

import (
	"repro/internal/register"
)

// Array wraps an instrumented register.Array with a Controller: every
// operation on a per-process Handle passes through the controller's gates,
// so the plan's faults land at exact operation indices and the whole run is
// serialised into one replayable schedule. The underlying array keeps its
// own Stats instrumentation, which — because the schedule is deterministic —
// is itself reproducible across replays.
type Array[T any] struct {
	inner *register.Array[T]
	ctrl  *Controller
}

// NewArray wraps inner with the controller's gates.
func NewArray[T any](inner *register.Array[T], ctrl *Controller) *Array[T] {
	return &Array[T]{inner: inner, ctrl: ctrl}
}

// Controller returns the gate controller (for harness Exit/Abort calls).
func (a *Array[T]) Controller() *Controller { return a.ctrl }

// Handle returns process pid's gated view of the array. Protocol code uses
// a Handle exactly like a register.Array; a crash event unwinds the calling
// goroutine with a CrashSignal panic, which the harness recovers.
func (a *Array[T]) Handle(pid int) *Handle[T] {
	return &Handle[T]{a: a, pid: pid}
}

// Handle is one process's gated view of a faulty Array.
type Handle[T any] struct {
	a   *Array[T]
	pid int
}

// Len returns the number of registers.
func (h *Handle[T]) Len() int { return h.a.inner.Len() }

// Read returns the contents of register i, once the controller grants the
// process its next operation.
func (h *Handle[T]) Read(i int) T {
	if err := h.a.ctrl.Acquire(h.pid, false); err != nil {
		panic(CrashSignal{Pid: h.pid, Err: err})
	}
	v := h.a.inner.Read(i)
	if err := h.a.ctrl.Release(h.pid); err != nil {
		panic(CrashSignal{Pid: h.pid, Err: err})
	}
	return v
}

// Write stores v in register i under the gate. On a CrashAmidWrite event
// the store lands before the goroutine unwinds — exactly the half-completed
// write the fault models.
func (h *Handle[T]) Write(i int, v T) {
	if err := h.a.ctrl.Acquire(h.pid, true); err != nil {
		panic(CrashSignal{Pid: h.pid, Err: err})
	}
	h.a.inner.Write(i, v)
	if err := h.a.ctrl.Release(h.pid); err != nil {
		panic(CrashSignal{Pid: h.pid, Err: err})
	}
}
