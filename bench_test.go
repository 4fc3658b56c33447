// Package repro_test is the benchmark harness: one benchmark per experiment
// row of EXPERIMENTS.md (the "tables and figures" of this theory paper being
// its theorem and companion bounds). Custom metrics carry the quantities the
// claims are about — registers witnessed, state-change cost, bits — so that
// `go test -bench . -benchmem` regenerates the experiment tables directly.
package repro_test

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/encdec"
	"repro/internal/explore"
	"repro/internal/leader"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/native"
	"repro/internal/perturb"
	"repro/internal/valency"
)

func diskOpts() explore.Options {
	return explore.Options{
		Canon: consensus.DiskRace{},
	}
}

// BenchmarkTheorem1 is experiment E1: the covering/valency adversary forces
// n-1 distinct registers on live protocols. Metrics: registers witnessed
// (the claim), oracle configurations searched (the cost of deciding the
// proof's quantifiers).
func BenchmarkTheorem1(b *testing.B) {
	cases := []struct {
		protocol string
		machine  model.Machine
		opts     explore.Options
		n        int
	}{
		{"flood/n=2", consensus.Flood{}, explore.Options{}, 2},
		{"diskrace/n=2", consensus.DiskRace{}, diskOpts(), 2},
		{"diskrace/n=3", consensus.DiskRace{}, diskOpts(), 3},
	}
	for _, tc := range cases {
		b.Run(tc.protocol, func(b *testing.B) {
			var regs, configs int
			for i := 0; i < b.N; i++ {
				engine := adversary.New(valency.New(tc.opts))
				w, err := engine.Theorem1(context.Background(), tc.machine, tc.n)
				if err != nil {
					b.Fatal(err)
				}
				regs = w.Registers
				configs = engine.Oracle().Stats().Configs
			}
			b.ReportMetric(float64(regs), "registers")
			b.ReportMetric(float64(tc.n-1), "bound(n-1)")
			b.ReportMetric(float64(configs), "oracle-configs")
		})
	}
}

// BenchmarkUpperBound is experiment E2: the native n-register protocol
// races n goroutines and writes exactly n registers.
func BenchmarkUpperBound(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(sizeName(n), func(b *testing.B) {
			var touched int
			for i := 0; i < b.N; i++ {
				d := native.NewDiskRace(n)
				var wg sync.WaitGroup
				for pid := 0; pid < n; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						if _, err := d.Propose(pid, pid%2); err != nil {
							b.Error(err)
						}
					}(pid)
				}
				wg.Wait()
				touched = d.Stats().Touched
			}
			b.ReportMetric(float64(touched), "registers")
		})
	}
}

// BenchmarkValency is experiment E3: deciding Proposition 2's quantifiers —
// the cost of one initial-configuration valency query per protocol.
func BenchmarkValency(b *testing.B) {
	cases := []struct {
		name    string
		machine model.Machine
		opts    explore.Options
		n       int
	}{
		{"flood/n=2", consensus.Flood{}, explore.Options{}, 2},
		{"flood/n=3", consensus.Flood{}, explore.Options{}, 3},
		{"diskrace/n=3", consensus.DiskRace{}, diskOpts(), 3},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			inputs := make([]model.Value, tc.n)
			for i := range inputs {
				inputs[i] = "1"
			}
			inputs[0] = "0"
			all := make([]int, tc.n)
			for i := range all {
				all[i] = i
			}
			var configs int
			for i := 0; i < b.N; i++ {
				oracle := valency.New(tc.opts)
				c := model.NewConfig(tc.machine, inputs)
				v, err := oracle.Decidable(context.Background(), c, all)
				if err != nil {
					b.Fatal(err)
				}
				if !v.Bivalent() {
					b.Fatal("initial configuration not bivalent")
				}
				configs = oracle.Stats().Configs
			}
			b.ReportMetric(float64(configs), "configs")
		})
	}
}

// BenchmarkLemmas is experiment E4: the per-lemma constructions at n=3 on
// DiskRace (the figures of the paper, regenerated as executions).
func BenchmarkLemmas(b *testing.B) {
	all := []int{0, 1, 2}
	setup := func(b *testing.B) (*adversary.Engine, model.Config) {
		engine := adversary.New(valency.New(diskOpts()))
		c, err := engine.InitialBivalent(context.Background(), consensus.DiskRace{}, 3)
		if err != nil {
			b.Fatal(err)
		}
		return engine, c
	}
	b.Run("lemma1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine, c := setup(b)
			if _, _, err := engine.Lemma1(context.Background(), c, all); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lemma4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine, c := setup(b)
			if _, err := engine.Lemma4(context.Background(), c, all); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lemma3+lemma2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine, c := setup(b)
			l4, err := engine.Lemma4(context.Background(), c, all)
			if err != nil {
				b.Fatal(err)
			}
			r := model.Without(all, l4.Q...)
			phi, q, err := engine.Lemma3(context.Background(), l4.Config, all, r)
			if err != nil {
				b.Fatal(err)
			}
			z := l4.Q[0]
			if z == q {
				z = l4.Q[1]
			}
			if _, _, err := engine.Lemma2(context.Background(), model.RunPath(l4.Config, phi), r, z); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPerturbation is experiment E5: the JTT adversary's covering
// grows to n-1 registers, and the reader's solo cost matches.
func BenchmarkPerturbation(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		b.Run(sizeName(n), func(b *testing.B) {
			var w *perturb.Witness
			for i := 0; i < b.N; i++ {
				var err error
				w, err = perturb.NewAdversary(perturb.SWCounter{}).Run(n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(w.Registers), "registers")
			b.ReportMetric(float64(w.ReaderSoloSteps), "reader-solo-steps")
		})
	}
}

// BenchmarkMutexCost is experiment E6: state-change cost of canonical
// executions, Peterson vs tournament, against n·log₂ n.
func BenchmarkMutexCost(b *testing.B) {
	for _, alg := range []mutex.Algorithm{mutex.Peterson{}, mutex.Tournament{}} {
		for _, n := range []int{4, 8, 16, 32, 64} {
			b.Run(alg.Name()+"/"+sizeName(n), func(b *testing.B) {
				var cost int64
				for i := 0; i < b.N; i++ {
					res, err := mutex.Run(alg, n, mutex.RoundRobin())
					if err != nil {
						b.Fatal(err)
					}
					cost = res.Cost
				}
				b.ReportMetric(float64(cost), "state-change-cost")
				b.ReportMetric(float64(cost)/(float64(n)*math.Log2(float64(n))), "cost-per-nlgn")
			})
		}
	}
}

// BenchmarkEncoder is experiment E7: the Fan-Lynch encoder/decoder round
// trip, with the information floor as a metric.
func BenchmarkEncoder(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(sizeName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			var bits int
			var cost int64
			for i := 0; i < b.N; i++ {
				perm := rng.Perm(n)
				enc, err := encdec.EncodeExecution(mutex.Tournament{}, perm)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := encdec.DecodeExecution(mutex.Tournament{}, enc); err != nil {
					b.Fatal(err)
				}
				bits = enc.BitLen
				cost = enc.Cost
			}
			b.ReportMetric(float64(bits), "bits")
			b.ReportMetric(float64(cost), "cost")
		})
	}
}

// BenchmarkLeaderElection is experiment E8: weak leader election from
// registers, with the register count (the contrast to consensus) as metric.
func BenchmarkLeaderElection(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(sizeName(n), func(b *testing.B) {
			var regs int
			for i := 0; i < b.N; i++ {
				e := leader.NewElection(n)
				leaders := 0
				var mu sync.Mutex
				var wg sync.WaitGroup
				for pid := 0; pid < n; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						won, err := e.Run(pid)
						if err != nil {
							b.Error(err)
							return
						}
						if won {
							mu.Lock()
							leaders++
							mu.Unlock()
						}
					}(pid)
				}
				wg.Wait()
				if leaders != 1 {
					b.Fatalf("%d leaders", leaders)
				}
				regs = e.Registers()
			}
			b.ReportMetric(float64(regs), "registers")
		})
	}
}

// BenchmarkRandomized is experiment E9: randomized consensus work (total
// local coin flips and rounds) across sizes.
func BenchmarkRandomized(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(sizeName(n), func(b *testing.B) {
			var flips, rounds int
			for i := 0; i < b.N; i++ {
				r := native.NewRandomized(n)
				results := make([]native.Result, n)
				var wg sync.WaitGroup
				for pid := 0; pid < n; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(i*1000 + pid)))
						res, err := r.Propose(pid, pid%2, rng)
						if err != nil {
							b.Error(err)
							return
						}
						results[pid] = res
					}(pid)
				}
				wg.Wait()
				flips, rounds = 0, 0
				for _, res := range results {
					flips += res.Flips
					if res.Round+1 > rounds {
						rounds = res.Round + 1
					}
				}
			}
			b.ReportMetric(float64(flips), "coin-flips")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkModelCheck measures the verification substrate itself (the cost
// of exhaustively checking flood at n=2 and boundedly at n=3).
func BenchmarkModelCheck(b *testing.B) {
	b.Run("flood/n=2/exhaustive", func(b *testing.B) {
		var configs int
		for i := 0; i < b.N; i++ {
			report, err := check.Consensus(context.Background(), consensus.Flood{}, 2, check.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if !report.OK() {
				b.Fatal(report)
			}
			configs = report.Configs
		}
		b.ReportMetric(float64(configs), "configs")
	})
	b.Run("diskrace/n=2/exhaustive", func(b *testing.B) {
		var configs int
		for i := 0; i < b.N; i++ {
			report, err := check.Consensus(context.Background(), consensus.DiskRace{}, 2, check.Options{Explore: diskOpts()})
			if err != nil {
				b.Fatal(err)
			}
			if !report.OK() {
				b.Fatal(report)
			}
			configs = report.Configs
		}
		b.ReportMetric(float64(configs), "configs")
	})
}

// BenchmarkProposeFacade measures the end-user fast path.
func BenchmarkProposeFacade(b *testing.B) {
	inputs := []int{0, 1, 1, 0}
	for i := 0; i < b.N; i++ {
		if _, err := core.Propose(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string {
	return "n=" + strconv.Itoa(n)
}
