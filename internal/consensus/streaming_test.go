package consensus

import (
	"context"
	"testing"

	"repro/internal/explore"
	"repro/internal/model"
)

// walkDiskRace enumerates reachable DiskRace configurations (bounded) and
// hands each to check.
func walkDiskRace(t *testing.T, n int, limit int, check func(model.Config)) {
	t.Helper()
	inputs := make([]model.Value, n)
	for i := range inputs {
		inputs[i] = "1"
	}
	inputs[0] = "0"
	c := model.NewConfig(DiskRace{}, inputs)
	pids := make([]int, n)
	for i := range pids {
		pids[i] = i
	}
	opts := explore.Options{Canon: DiskRace{}, MaxConfigs: limit}
	seen := 0
	_, err := explore.Reach(context.Background(), c, pids, opts, func(v explore.Visit) bool {
		check(v.Config)
		seen++
		return true
	})
	if err != nil && seen < limit-1 {
		t.Fatal(err)
	}
}

// TestCanonicalKeyToMatchesCanonicalKey holds DiskRace's rendered keys to
// the string reference byte for byte across reachable configurations: the
// Config path (model.AppendKey) and the packed path (a canonical codec's
// AppendKey over per-id templates). This equality is what makes the
// exploration engine's fingerprint dedup sound.
func TestCanonicalKeyToMatchesCanonicalKey(t *testing.T) {
	for _, n := range []int{2, 3} {
		var ks model.KeyScratch
		var codec *model.PackedCodec
		var key []byte
		walkDiskRace(t, n, 20000, func(c model.Config) {
			if codec == nil {
				codec = model.NewCanonCodec(c, DiskRace{})
			}
			want := (DiskRace{}).CanonicalKey(c)
			key = model.AppendKey(key[:0], DiskRace{}, c, &ks)
			if string(key) != want {
				t.Fatalf("n=%d: AppendKey wrote %q, CanonicalKey returns %q", n, key, want)
			}
			rec, err := codec.Pack(c)
			if err != nil {
				t.Fatal(err)
			}
			if key, err = codec.AppendKey(key[:0], rec, &ks); err != nil || string(key) != want {
				t.Fatalf("n=%d: packed AppendKey wrote %q (%v), CanonicalKey returns %q", n, key, err, want)
			}
		})
	}
}

// TestDiskStateKeyToMatchesKey does the same for the per-state exact key.
func TestDiskStateKeyToMatchesKey(t *testing.T) {
	var kb model.KeyBuilder
	walkDiskRace(t, 3, 20000, func(c model.Config) {
		for pid := 0; pid < c.NumProcesses(); pid++ {
			s := c.State(pid).(diskState)
			kb.Reset()
			s.KeyTo(&kb)
			if got, want := kb.String(), s.Key(); got != want {
				t.Fatalf("p%d: KeyTo wrote %q, Key returns %q", pid, got, want)
			}
		}
	})
}

// TestFloodKeyToMatchesKey holds floodState's streaming key to its Sprintf
// reference byte for byte across reachable flood configurations.
func TestFloodKeyToMatchesKey(t *testing.T) {
	c := model.NewConfig(Flood{}, []model.Value{"0", "1", "1"})
	opts := explore.Options{MaxConfigs: 20000}
	var kb model.KeyBuilder
	seen := 0
	_, err := explore.Reach(context.Background(), c, []int{0, 1, 2}, opts, func(v explore.Visit) bool {
		for pid := 0; pid < v.Config.NumProcesses(); pid++ {
			s := v.Config.State(pid).(floodState)
			kb.Reset()
			s.KeyTo(&kb)
			if got, want := kb.String(), s.Key(); got != want {
				t.Fatalf("p%d: KeyTo wrote %q, Key returns %q", pid, got, want)
			}
		}
		seen++
		return true
	})
	if err != nil && seen < opts.MaxConfigs-1 {
		t.Fatal(err)
	}
}

// TestCanonicalKeyToFallback pins the non-DiskRace fallback: on a foreign
// configuration the canonicaliser's key, on the Config path and the packed
// path alike, must be Config.Key, exactly as CanonicalKey falls back to it.
func TestCanonicalKeyToFallback(t *testing.T) {
	c := model.NewConfig(Flood{}, []model.Value{"0", "1"})
	var ks model.KeyScratch
	key := string(model.AppendKey(nil, DiskRace{}, c, &ks))
	if want := (DiskRace{}).CanonicalKey(c); key != want {
		t.Fatalf("fallback mismatch: AppendKey %q, CanonicalKey %q", key, want)
	}
	if key != c.Key() {
		t.Fatalf("fallback should be Config.Key, got %q", key)
	}
	codec := model.NewCanonCodec(c, DiskRace{})
	rec, err := codec.Pack(c)
	if err != nil {
		t.Fatal(err)
	}
	if packed, err := codec.AppendKey(nil, rec, &ks); err != nil || string(packed) != key {
		t.Fatalf("packed fallback %q (%v), want %q", packed, err, key)
	}
}

// TestDecodeBlockRoundTrip covers the hand-rolled split against encode.
func TestDecodeBlockRoundTrip(t *testing.T) {
	blocks := []diskBlock{
		{},
		{Mbal: Ballot{K: 3, Pid: 1}},
		{Mbal: Ballot{K: 12, Pid: 0}, Bal: Ballot{K: 12, Pid: 0}, Inp: "1"},
		{Mbal: Ballot{K: 5, Pid: 2}, Bal: Ballot{K: 4, Pid: 1}, Inp: "0"},
	}
	for _, b := range blocks {
		if got := decodeBlock(b.encode()); got != b {
			t.Fatalf("round trip of %+v gave %+v (encoded %q)", b, got, string(b.encode()))
		}
	}
	if got := decodeBlock(model.Bottom); got != (diskBlock{}) {
		t.Fatalf("decodeBlock(Bottom) = %+v, want zero block", got)
	}
}
