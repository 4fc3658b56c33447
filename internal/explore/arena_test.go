package explore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/consensus"
	"repro/internal/model"
)

// TestArenaMatchesLegacyFrontier is the packed engine's equivalence
// property: on every zoo protocol — DiskRace n=3 and a deep linear chain
// included — Reach (packed codec, stepper, raw pre-dedup) and the naive
// reference BFS (Apply, string keys, a map) must produce identical Counts
// and Steps, identical canonical keys per visit ID at one worker, and
// identical visited fingerprint sets at four. Run under -race it also
// checks the arena path's synchronisation.
func TestArenaMatchesLegacyFrontier(t *testing.T) {
	forcePool(t)
	cases := equivalenceCases()
	cases = append(cases, equivalenceCase{
		name:   "deep-chain",
		config: model.NewConfig(chainMachine{}, []model.Value{"500"}),
		pids:   []int{0},
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			naive := naiveReach(tc.config, tc.pids, tc.opts)
			if naive.capped != tc.capped {
				t.Fatalf("naive BFS capped=%v, case expects %v", naive.capped, tc.capped)
			}
			for _, workers := range []int{1, 4} {
				opts := tc.opts
				opts.Workers = workers
				var keys []string
				res, err := Reach(context.Background(), tc.config, tc.pids, opts, func(v Visit) bool {
					if v.ID != len(keys) {
						t.Fatalf("visit IDs not sequential: got %d at visit %d", v.ID, len(keys))
					}
					keys = append(keys, opts.ConfigKey(v.Config))
					return true
				})
				if err != nil && !tc.capped {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Count != len(naive.keys) {
					t.Errorf("workers=%d: Count=%d, naive=%d", workers, res.Count, len(naive.keys))
				}
				if !tc.capped && res.Steps != naive.steps {
					t.Errorf("workers=%d: Steps=%d, naive=%d", workers, res.Steps, naive.steps)
				}
				if len(keys) != len(naive.keys) {
					t.Fatalf("workers=%d: Reach visited %d configs, naive %d", workers, len(keys), len(naive.keys))
				}
				if workers == 1 {
					// A single worker is fully deterministic: Reach must
					// reproduce the naive visit sequence id for id, key
					// for key.
					for id := range keys {
						if keys[id] != naive.keys[id] {
							t.Fatalf("workers=%d: id %d key %q (Reach) != %q (naive)",
								workers, id, keys[id], naive.keys[id])
						}
					}
				}
				if tc.capped && workers > 1 {
					// Same-level duplicate election races across worker
					// chunks, so a mid-level cap may truncate a different
					// tail; only the count is comparable (checked above).
					continue
				}
				// The visited fingerprint set — what dedup actually
				// relies on — is deterministic per level even when
				// representative election races: compare it sorted.
				fps := func(keys []string) []Fingerprint {
					out := make([]Fingerprint, len(keys))
					for i, k := range keys {
						out[i] = fingerprintOf(k)
					}
					sort.Slice(out, func(a, b int) bool {
						if out[a][0] != out[b][0] {
							return out[a][0] < out[b][0]
						}
						return out[a][1] < out[b][1]
					})
					return out
				}
				pf, nf := fps(keys), fps(naive.keys)
				for i := range pf {
					if pf[i] != nf[i] {
						t.Fatalf("workers=%d: fingerprint sets diverge at %d", workers, i)
					}
				}
			}
		})
	}
}

// TestArenaPathsReplay: witness paths recorded by the packed path must
// replay to configurations with the recorded canonical keys (covering the
// via/parent bookkeeping in the arena merge).
func TestArenaPathsReplay(t *testing.T) {
	forcePool(t)
	disk := consensus.DiskRace{}
	c := model.NewConfig(disk, []model.Value{"0", "1", "1"})
	opts := Options{Canon: disk, MaxConfigs: 4000, Workers: 4}
	var keys []string
	res, err := Reach(context.Background(), c, []int{0, 1, 2}, opts, func(v Visit) bool {
		keys = append(keys, opts.ConfigKey(v.Config))
		return true
	})
	if err != nil && !errors.Is(err, ErrCapped) {
		t.Fatal(err)
	}
	for id, key := range keys {
		path, ok := res.PathTo(id)
		if !ok {
			t.Fatalf("PathTo(%d) failed", id)
		}
		if got := opts.ConfigKey(model.RunPath(c, path)); got != key {
			t.Fatalf("replay of id %d lands on %q, visited %q", id, got, key)
		}
	}
}

// TestMixWordsDistinctness hammers the packed-record hash with structured
// near-identical inputs (the regime raw pre-dedup lives in: records
// differing in a couple of dictionary ids) and demands zero collisions.
func TestMixWordsDistinctness(t *testing.T) {
	seen := make(map[Fingerprint][]uint64, 400000)
	check := func(ws []uint64) {
		fp := mixWords(ws)
		if prev, ok := seen[fp]; ok {
			t.Fatalf("mixWords collision between %v and %v", prev, ws)
		}
		seen[fp] = append([]uint64{}, ws...)
	}
	for i := uint64(0); i < 500; i++ {
		for j := uint64(0); j < 500; j++ {
			check([]uint64{i, j<<32 | i})
		}
	}
	// Length must be part of the digest: a record extended by a zero word
	// encodes a different configuration shape.
	check([]uint64{1, 2, 0})
	check([]uint64{1, 2, 0, 0})
	check([]uint64{0})
	check([]uint64{})
}

// TestFNVReferenceFingerprintDistinctness keeps the retired FNV-128
// reference honest (it remains the cross-check implementation for the
// wyhash-style mixer): same structured-key sweep, zero collisions.
func TestFNVReferenceFingerprintDistinctness(t *testing.T) {
	seen := make(map[Fingerprint]string, 100000)
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("D%d|cfg|%d", i%7, i)
		fp := fingerprintFNV128(key)
		if prev, ok := seen[fp]; ok {
			t.Fatalf("FNV collision between %q and %q", prev, key)
		}
		seen[fp] = key
	}
}

// TestFPSetOpenAddressing covers the open-addressed visited set directly:
// duplicate rejection, the out-of-band zero fingerprint, growth across the
// 128-slot floor, Len accounting, and Dump completeness — for both the
// striped and the lock-free single-goroutine variants.
func TestFPSetOpenAddressing(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *FPSet
	}{
		{"locked", newFPSet},
		{"local", NewLocalFPSet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk()
			rng := rand.New(rand.NewSource(42))
			const n = 50000
			want := make(map[Fingerprint]bool, n+1)
			want[Fingerprint{}] = true
			if !s.Add(Fingerprint{}) {
				t.Fatal("zero fingerprint rejected on first insert")
			}
			if s.Add(Fingerprint{}) {
				t.Fatal("zero fingerprint accepted twice")
			}
			for len(want) < n+1 {
				fp := Fingerprint{rng.Uint64(), rng.Uint64()}
				if want[fp] {
					continue
				}
				want[fp] = true
				if !s.Add(fp) {
					t.Fatalf("fresh fingerprint %x rejected", fp)
				}
				if s.Add(fp) {
					t.Fatalf("duplicate fingerprint %x accepted", fp)
				}
			}
			if s.Len() != n+1 {
				t.Fatalf("Len = %d, want %d", s.Len(), n+1)
			}
			got := s.Dump()
			if len(got) != n+1 {
				t.Fatalf("Dump returned %d fingerprints, want %d", len(got), n+1)
			}
			for _, fp := range got {
				if !want[fp] {
					t.Fatalf("Dump invented fingerprint %x", fp)
				}
				delete(want, fp)
			}
			if len(want) != 0 {
				t.Fatalf("Dump lost %d fingerprints", len(want))
			}
		})
	}
}

// TestFPSetConcurrentAdds races many goroutines over one striped set: each
// fingerprint must be won exactly once however the Adds interleave.
func TestFPSetConcurrentAdds(t *testing.T) {
	s := newFPSet()
	const (
		goroutines = 8
		perG       = 20000
	)
	wins := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			won := 0
			for i := 0; i < perG; i++ {
				// All goroutines insert the same universe of fingerprints.
				fp := mixWords([]uint64{uint64(i), uint64(i) * 3})
				if s.Add(fp) {
					won++
				}
			}
			wins <- won
		}()
	}
	total := 0
	for g := 0; g < goroutines; g++ {
		total += <-wins
	}
	if total != perG {
		t.Fatalf("distinct fingerprints won %d times total, want exactly %d", total, perG)
	}
	if s.Len() != perG {
		t.Fatalf("Len = %d, want %d", s.Len(), perG)
	}
}

// TestStripeLayout pins the false-sharing padding: every visited-set and
// raw-cache stripe fills whole cache lines, and both stripe arrays start
// on a line boundary of their set, so a field added to a stripe or a set
// header cannot silently put two stripes' mutexes on one line.
func TestStripeLayout(t *testing.T) {
	for _, tc := range []struct {
		name         string
		size, offset uintptr
	}{
		{"fpShard", unsafe.Sizeof(fpShard{}), unsafe.Offsetof(FPSet{}.shards)},
		{"rawShard", unsafe.Sizeof(rawShard{}), unsafe.Offsetof(rawCache{}.stripes)},
	} {
		if tc.size%cacheLine != 0 {
			t.Errorf("%s is %d bytes, not a multiple of %d", tc.name, tc.size, cacheLine)
		}
		if tc.offset%cacheLine != 0 {
			t.Errorf("%s array starts at offset %d, not a multiple of %d", tc.name, tc.offset, cacheLine)
		}
	}
}

// TestRawCacheBoundedAndExact drives the raw-duplicate cache directly: a
// hit needs the full 128-bit digest, a stripe never grows past
// rawCacheMax, and at the maximum a colliding insert evicts the older
// digest, which then misses once and is recorded again.
func TestRawCacheBoundedAndExact(t *testing.T) {
	c := &rawCache{}
	if c.seen(Fingerprint{}) || c.seen(Fingerprint{}) {
		t.Fatal("the zero digest, the empty-slot marker, hit")
	}
	rng := rand.New(rand.NewSource(7))
	fps := make([]Fingerprint, 200_000)
	for i := range fps {
		fps[i] = Fingerprint{rng.Uint64(), rng.Uint64()}
		if c.seen(fps[i]) {
			t.Fatalf("fresh digest %x hit", fps[i])
		}
	}
	for i := range c.stripes {
		if n := len(c.stripes[i].tbl); n > rawCacheMax {
			t.Fatalf("stripe %d grew to %d slots, past the %d maximum", i, n, rawCacheMax)
		}
	}
	// The last digest is still in its slot; a digest that shares its
	// stripe and slot but differs in either word misses, and evicts it.
	last := fps[len(fps)-1]
	if !c.seen(last) {
		t.Fatal("the most recent digest was forgotten")
	}
	for _, other := range []Fingerprint{{last[0], last[1] ^ 1<<63}, {last[0] ^ 1<<63, last[1]}} {
		c.seen(last)
		if c.seen(other) {
			t.Fatalf("digest %x hit the slot holding %x", other, last)
		}
	}
	forgotten := 0
	for _, fp := range fps {
		if !c.seen(fp) {
			forgotten++
		}
	}
	if forgotten == 0 {
		t.Fatalf("%d digests into %d slots forgot none", len(fps), fpShards*rawCacheMax)
	}

	one := &rawCache{locked: true}
	old := rawCacheMax
	rawCacheMax = 1
	defer func() { rawCacheMax = old }()
	a, b := Fingerprint{0, 1}, Fingerprint{0, 2} // same stripe, same single slot
	if one.seen(a) || !one.seen(a) {
		t.Fatal("a one-slot stripe did not record its digest")
	}
	if one.seen(b) || one.seen(a) || !one.seen(a) {
		t.Fatal("a one-slot stripe did not evict the older digest")
	}
}
