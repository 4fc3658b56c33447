package valency_test

import (
	"context"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/valency"
)

// BenchmarkProbeBatch times one Lemma 1 probe: every P-{z} of DiskRace
// n=4's initial bivalent configuration, at the adversary's probe budget,
// on a fresh oracle each iteration so no memo row carries over.
func BenchmarkProbeBatch(b *testing.B) {
	m, opts, err := core.Machine(core.ProtocolDiskRace)
	if err != nil {
		b.Fatal(err)
	}
	c := model.NewConfig(m, []model.Value{"0", "1", "1", "1"})
	all := []int{0, 1, 2, 3}
	cands := make([][]int, len(all))
	for i, z := range all {
		cands[i] = model.Without(all, z)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := valency.New(opts)
		if _, err := o.ProbeBivalentBatch(ctx, c, cands, adversary.DefaultProbeBudget); err != nil {
			b.Fatal(err)
		}
	}
}
