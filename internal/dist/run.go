package dist

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/obs"
)

// Run bundles everything a coordinator or worker needs about the explored
// space: the spec plus the concrete root configuration, scheduler pids and
// exploration options it denotes. Both sides resolve the same spec through
// the same registry (internal/core), so a worker joining a coordinator is
// guaranteed to expand the very space the coordinator aggregates.
type Run struct {
	Spec  Spec
	Root  model.Config
	Procs []int
	Opts  explore.Options
}

// NewRun resolves a run description into a Run. The root configuration
// uses the Theorem 1 mixed inputs — process 0 proposes "0", everyone else
// "1" — the bivalent start every exploration in this repo reasons from.
func NewRun(protocol string, n, slices, maxDepth int, lease time.Duration) (*Run, error) {
	if slices < 1 {
		return nil, fmt.Errorf("dist: %d slices", slices)
	}
	if maxDepth < 0 {
		return nil, fmt.Errorf("dist: negative max depth")
	}
	if lease <= 0 {
		return nil, fmt.Errorf("dist: non-positive lease %v", lease)
	}
	m, opts, err := core.Machine(protocol)
	if err != nil {
		return nil, err
	}
	if err := core.CheckProcesses(m, n); err != nil {
		return nil, err
	}
	inputs := make([]model.Value, n)
	inputs[0] = model.Value("0")
	for i := 1; i < n; i++ {
		inputs[i] = model.Value("1")
	}
	procs := make([]int, n)
	for i := range procs {
		procs[i] = i
	}
	return &Run{
		Spec: Spec{
			Protocol:  protocol,
			N:         n,
			Slices:    slices,
			MaxDepth:  maxDepth,
			LeaseMS:   lease.Milliseconds(),
			FPVersion: explore.FingerprintVersion,
		},
		Root:  model.NewConfig(m, inputs),
		Procs: procs,
		Opts:  opts,
	}, nil
}

// RunFromSpec rebuilds a Run from a coordinator-served spec — the worker
// side of the same resolution.
func RunFromSpec(spec Spec) (*Run, error) {
	if spec.FPVersion != explore.FingerprintVersion {
		return nil, fmt.Errorf("dist: spec wants fingerprint v%d, this binary has v%d", spec.FPVersion, explore.FingerprintVersion)
	}
	return NewRun(spec.Protocol, spec.N, spec.Slices, spec.MaxDepth, time.Duration(spec.LeaseMS)*time.Millisecond)
}

// Coordinator builds the run's coordinator.
func (r *Run) Coordinator(scope *obs.Scope) (*Coordinator, error) {
	return NewCoordinator(r.Spec, r.Opts.Fingerprint(r.Root), scope)
}
