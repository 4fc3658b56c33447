package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/valency"
)

// proofBudget bounds one construction so a regression that hangs still
// ends the run inside its time limit.
const proofBudget = 150 * time.Second

// proofFixture is what a CLI run builds before the construction starts.
type proofFixture struct {
	m      model.Machine
	engine *adversary.Engine
}

// newProof resolves DiskRace and builds a fresh engine and memo.
func newProof(p *pass, maxConfigs, workers int) (proofFixture, error) {
	m, opts, err := core.Machine(core.ProtocolDiskRace)
	if err != nil {
		return proofFixture{}, err
	}
	opts.MaxConfigs = maxConfigs
	opts.Workers = workers
	opts.Obs = p.scope
	return proofFixture{m: m, engine: adversary.New(valency.New(opts))}, nil
}

// proofSetupBuilds is how many engine builds one set-up sample averages. A
// build takes well under a microsecond, too little to time alone, and its
// garbage sets off a collection every few thousand builds: a sample of 2,000
// builds read about 3.3e-7s a build without a collection and 5e-7 to 9e-7s
// with one, and the quartiles of one run's samples lay 0.43 of their median
// apart. A batch of 50,000 spans about eight collections, so every sample
// carries its share; the quartiles close to about 0.2.
const proofSetupBuilds = 50_000

// timeProofSetup records setupBuilds set-up samples back to back. Unlike
// the fixtures that fsync, an engine build touches neither disk nor kernel,
// so it needs no idle gap to settle; without one the quartiles of a run's
// samples lay a little closer, about 0.17 of their median apart.
func timeProofSetup(b *bench, p *pass, maxConfigs, workers int) error {
	for i := 0; i < b.sz.setupBuilds; i++ {
		start := time.Now()
		for k := 0; k < proofSetupBuilds; k++ {
			if _, err := newProof(p, maxConfigs, workers); err != nil {
				return err
			}
		}
		p.setup = append(p.setup, time.Since(start).Seconds()/proofSetupBuilds)
	}
	return nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var n4Workload = workload{
	prepare: func(b *bench) error {
		_, err := proveN4(b, &pass{layers: map[string]float64{}})
		return err
	},
	run: func(b *bench, p *pass) error {
		if err := timeProofSetup(b, p, 0, 1); err != nil {
			return err
		}
		var verify []float64
		for p.more() {
			v, err := proveN4(b, p)
			if err != nil {
				return err
			}
			verify = append(verify, v)
		}
		p.layers["check.verify_ms"] = 1e3 * median(verify)
		return nil
	},
	checks: []string{"witness_verifies", "witness_sha256_stable"},
}

// proveN4 runs one timed Theorem1(DiskRace, n4) rep and checks its
// witness: it must pass check.VerifyWitness, and its rendering must hash
// identically to every other rep's. It returns the verification time.
func proveN4(b *bench, p *pass) (float64, error) {
	f, err := newProof(p, 0, 1)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(b.ctx, proofBudget)
	defer cancel()
	a, start := allocated(), time.Now()
	w, err := f.engine.Theorem1(ctx, f.m, b.sz.n4)
	took := time.Since(start).Seconds()
	p.alloc += allocated() - a
	if err != nil {
		b.check("witness_verifies", false, "theorem 1 n=%d: %v", b.sz.n4, err)
		p.op(took, false)
		return 0, nil
	}
	start = time.Now()
	verr := check.VerifyWitness(f.m, w)
	verify := time.Since(start).Seconds()
	ok := b.check("witness_verifies", verr == nil, "%v", verr)
	sum := sha256Hex([]byte(trace.RenderWitness(w)))
	if b.witnessSHA == "" {
		b.witnessSHA = sum
	}
	ok = b.check("witness_sha256_stable", sum == b.witnessSHA, "rep witness %s, first %s", sum, b.witnessSHA) && ok
	p.op(took, ok)
	return verify, nil
}

var n5Workload = workload{
	prepare: func(b *bench) error {
		// Warm the parallel engine and grow the heap on a small cap; a full
		// capped rep would double the run's length.
		f, err := newProof(&pass{}, b.sz.n5WarmCap, runtime.GOMAXPROCS(0))
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(b.ctx, proofBudget)
		defer cancel()
		var part *adversary.Partial
		if _, err := f.engine.Theorem1(ctx, f.m, b.sz.n5); !errors.As(err, &part) {
			return fmt.Errorf("warm-up: want a capped partial, got %v", err)
		}
		return nil
	},
	run: func(b *bench, p *pass) error {
		workers := runtime.GOMAXPROCS(0)
		if err := timeProofSetup(b, p, b.sz.n5Cap, workers); err != nil {
			return err
		}
		for p.more() {
			f, err := newProof(p, b.sz.n5Cap, workers)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(b.ctx, proofBudget)
			a, start := allocated(), time.Now()
			_, err = f.engine.Theorem1(ctx, f.m, b.sz.n5)
			took := time.Since(start).Seconds()
			p.alloc += allocated() - a
			cancel()
			p.op(took, checkN5Partial(b, err))
		}
		return nil
	},
	checks: []string{"partial_capped", "registers_forced", "partial_stable"},
}

// checkN5Partial checks one capped n=5 outcome: the cap, not the deadline
// or a property violation, must stop the run; Lemma 4 must have forced
// n−2 registers; and the stage and oracle-config counts must match every
// other rep's.
func checkN5Partial(b *bench, err error) bool {
	var part *adversary.Partial
	if !b.check("partial_capped", errors.As(err, &part) && errors.Is(err, explore.ErrCapped), "want a capped partial, got %v", err) {
		return false
	}
	n := b.sz.n5
	ok := b.check("registers_forced", part.RegistersForced == n-2, "%d registers forced, want %d", part.RegistersForced, n-2)
	shape := fmt.Sprintf("%d stages, %d oracle configs", len(part.Stages), part.OracleStats.Configs)
	if b.partial == "" {
		b.partial = shape
	}
	return b.check("partial_stable", shape == b.partial, "rep reached %s, first %s", shape, b.partial) && ok
}
