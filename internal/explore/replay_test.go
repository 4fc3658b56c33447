package explore

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
)

// TestReplayerMatchesApply holds the packed replay to model.RunPath: the
// path to every configuration reachable within a depth bound — DiskRace
// for the register steps, CoinFlood for coin moves — is replayed through
// one Replayer in a seeded shuffled order, so consecutive paths share
// prefixes of every length, and each record must equal the packing of the
// configuration model.Apply reaches. Each path is also extended by one
// outcome-less move of every process, which steps a decided process (a
// no-op) and a coin-poised one (outcome "0") as model.Apply does.
func TestReplayerMatchesApply(t *testing.T) {
	disk := consensus.DiskRace{}
	for _, tc := range []struct {
		name  string
		root  model.Config
		opts  Options
		depth int
	}{
		{"diskrace3", model.NewConfig(disk, []model.Value{"0", "1", "1"}), Options{Canon: disk}, 12},
		{"coinflood2", model.NewConfig(consensus.CoinFlood{}, []model.Value{"0", "1"}), Options{}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pids := make([]int, tc.root.NumProcesses())
			for i := range pids {
				pids[i] = i
			}
			opts := tc.opts
			opts.MaxDepth = tc.depth
			opts.Workers = 1
			res, err := Reach(context.Background(), tc.root, pids, opts, nil)
			if err != nil && !errors.Is(err, ErrCapped) {
				t.Fatal(err)
			}
			var paths [][]uint32
			for id := 0; id < res.Count; id++ {
				path, _ := res.packedPathTo(nil, id)
				paths = append(paths, path)
				for _, pid := range pids {
					paths = append(paths, append(slices.Clip(path), uint32(pid)<<2))
				}
			}
			rand.New(rand.NewSource(7)).Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })

			codec := model.NewCanonCodec(tc.root, tc.opts.Canon)
			rp, err := NewReplayer(NewExpander(codec, tc.opts), tc.root)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]uint64, codec.Words())
			coins := 0
			for _, path := range paths {
				got, err := rp.Replay(path)
				if err != nil {
					t.Fatalf("replay %v: %v", path, err)
				}
				mv := make(model.Path, len(path))
				for i, u := range path {
					mv[i] = model.UnpackMove(u)
					if mv[i].Coin != model.Bottom {
						coins++
					}
				}
				if err := codec.PackTo(want, model.RunPath(tc.root, mv)); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("replay of %v = %x, model.Apply packs to %x", mv, got, want)
				}
			}
			if tc.name == "coinflood2" && coins == 0 {
				t.Fatal("no coin move was replayed")
			}
			t.Logf("%d configurations, %d paths replayed", res.Count, len(paths))
		})
	}
}

// TestReplayerRejectsUnknownProcess: a path naming a process the root
// does not have fails typed instead of indexing out of the record, and
// the Replayer stays usable.
func TestReplayerRejectsUnknownProcess(t *testing.T) {
	root := model.NewConfig(consensus.Flood{}, []model.Value{"0", "1"})
	codec := model.NewPackedCodec(root)
	rp, err := NewReplayer(NewExpander(codec, Options{}), root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Replay([]uint32{0, 5 << 2}); err == nil {
		t.Fatal("move of process 5 among 2 replayed without error")
	}
	got, err := rp.Replay([]uint32{0, 1 << 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Pack(model.RunPath(root, model.Path{{Pid: 0}, {Pid: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("after a failed replay, replay of [p0 p1] = %x, want %x", got, want)
	}
}
