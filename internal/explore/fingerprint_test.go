package explore

import (
	"context"
	"errors"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
)

// diskRaceSample returns the first n configurations Reach visits in
// DiskRace n=5 from inputs 0,1,1,1,1 at one worker: the sample proofbench
// times packing and hashing on.
func diskRaceSample(tb testing.TB, n int) (model.Config, []model.Config) {
	tb.Helper()
	disk := consensus.DiskRace{}
	root := model.NewConfig(disk, []model.Value{"0", "1", "1", "1", "1"})
	opts := Options{Canon: disk, MaxConfigs: n, Workers: 1}
	cfgs := make([]model.Config, 0, n)
	_, err := Reach(context.Background(), root, []int{0, 1, 2, 3, 4}, opts, func(v Visit) bool {
		cfgs = append(cfgs, v.Config.Clone())
		return true
	})
	if err != nil && !errors.Is(err, ErrCapped) {
		tb.Fatal(err)
	}
	return root, cfgs
}

// BenchmarkExpanderFingerprint times Expander.Fingerprint per packed
// record over the first 20,000 configurations of DiskRace n=5.
func BenchmarkExpanderFingerprint(b *testing.B) {
	root, cfgs := diskRaceSample(b, 20000)
	opts := Options{Canon: consensus.DiskRace{}}
	codec := model.NewCanonCodec(root, opts.Canon)
	x := NewExpander(codec, opts)
	recs := make([][]uint64, len(cfgs))
	for i, c := range cfgs {
		rec, err := codec.Pack(c)
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = rec
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Fingerprint(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}
