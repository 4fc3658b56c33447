package model

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// walkToy enumerates reachable toy-machine configurations (BFS, exhaustive:
// the toy space is tiny) and hands each to check.
func walkToy(t *testing.T, check func(Config)) {
	t.Helper()
	root := toyConfig()
	seen := map[string]bool{root.Key(): true}
	queue := []Config{root}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		check(c)
		for pid := 0; pid < c.NumProcesses(); pid++ {
			if k, _ := PeekOp(c.State(pid)); k == OpDecide {
				continue
			}
			child := c.StepDet(pid)
			if !seen[child.Key()] {
				seen[child.Key()] = true
				queue = append(queue, child)
			}
		}
	}
	if len(seen) < 10 {
		t.Fatalf("toy walk saw only %d configurations", len(seen))
	}
}

// TestPackedCodecRoundTripsKey is the codec's core contract: for every
// reachable configuration, Unpack(Pack(c)) has a byte-identical key, and
// repacking the unpacked configuration reproduces the exact words.
func TestPackedCodecRoundTripsKey(t *testing.T) {
	pc := NewPackedCodec(toyConfig())
	walkToy(t, func(c Config) {
		words, err := pc.Pack(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(words) != pc.Words() {
			t.Fatalf("Pack returned %d words, Words() = %d", len(words), pc.Words())
		}
		back, err := pc.Unpack(words)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := back.Key(), c.Key(); got != want {
			t.Fatalf("round trip key %q, want %q", got, want)
		}
		again := make([]uint64, pc.Words())
		if err := pc.PackTo(again, back); err != nil {
			t.Fatal(err)
		}
		for i := range words {
			if words[i] != again[i] {
				t.Fatalf("repack differs at word %d: %#x vs %#x", i, words[i], again[i])
			}
		}
	})
}

// TestPackedFieldStraddlesWords exercises fields crossing a word boundary
// directly: every (offset, width) pair near the 64-bit seam must store and
// load exactly, without touching neighbouring bits.
func TestPackedFieldStraddlesWords(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for off := 40; off < 64; off++ {
		for bits := 1; bits <= 32; bits++ {
			words := []uint64{rng.Uint64(), rng.Uint64()}
			before := []uint64{words[0], words[1]}
			val := rng.Uint64() & (1<<uint(bits) - 1)
			setField(words, off, bits, val)
			if got := getField(words, off, bits); got != val {
				t.Fatalf("off=%d bits=%d: stored %#x, loaded %#x", off, bits, val, got)
			}
			// Clearing the field back must restore the untouched bits.
			setField(words, off, bits, 0)
			mask0 := ^uint64(0)
			mask1 := ^uint64(0)
			if off+bits > 64 {
				mask0 = ^(^uint64(0) << uint(off))
				mask1 = ^uint64(0) << uint(off+bits-64)
			} else {
				mask0 = ^(((uint64(1) << uint(bits)) - 1) << uint(off))
			}
			if words[0]&mask0 != before[0]&mask0 || words[1]&mask1 != before[1]&mask1 {
				t.Fatalf("off=%d bits=%d: neighbouring bits disturbed", off, bits)
			}
		}
	}
}

// TestPackedCapacityOverflow: a codec with 1-bit fields holds two dictionary
// entries; the third distinct state must fail with ErrPackedCapacity, not
// corrupt the record.
func TestPackedCapacityOverflow(t *testing.T) {
	pc := NewPackedCodecWidths(toyConfig(), 1, 1)
	root := toyConfig()
	dst := make([]uint64, pc.Words())
	// The three initial toy states are distinct (pid is in the key), so
	// packing the root already needs three state ids.
	err := pc.PackTo(dst, root)
	if !errors.Is(err, ErrPackedCapacity) {
		t.Fatalf("PackTo with 1-bit fields: err = %v, want ErrPackedCapacity", err)
	}
}

// TestUnpackRangeErrors: every malformed record class answers with
// ErrPackedRange — wrong word count, set padding bits, uninterned indices —
// and backing slices that are too small are rejected too.
func TestUnpackRangeErrors(t *testing.T) {
	pc := NewPackedCodec(toyConfig())
	words, err := pc.Pack(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	uninterned := append([]uint64{}, words...)
	setField(uninterned, 0, pc.StateBits(), 1<<uint(pc.StateBits())-1)
	cases := map[string][]uint64{
		"short":      words[:len(words)-1],
		"long":       append(append([]uint64{}, words...), 0),
		"uninterned": uninterned,
	}
	if pad := uint((pc.NumProcesses()*pc.StateBits() + pc.NumRegisters()*pc.RegBits()) & 63); pad != 0 {
		bad := append([]uint64{}, words...)
		bad[len(bad)-1] |= 1 << 63
		cases["padding"] = bad
	}
	for name, bad := range cases {
		if _, err := pc.Unpack(bad); !errors.Is(err, ErrPackedRange) {
			t.Errorf("%s: err = %v, want ErrPackedRange", name, err)
		}
	}
	if _, err := pc.UnpackInto(words, make([]State, 1), make([]Value, 0)); !errors.Is(err, ErrPackedRange) {
		t.Errorf("small backing: err = %v, want ErrPackedRange", err)
	}
	if err := pc.PackTo(make([]uint64, pc.Words()+1), toyConfig()); !errors.Is(err, ErrPackedRange) {
		t.Errorf("PackTo wrong dst: err = %v, want ErrPackedRange", err)
	}
	other := NewConfig(toyMachine{}, []Value{"a", "b"})
	if err := pc.PackTo(make([]uint64, pc.Words()), other); !errors.Is(err, ErrPackedRange) {
		t.Errorf("PackTo wrong shape: err = %v, want ErrPackedRange", err)
	}
}

// TestPackMoveRoundTrip covers the 32-bit move encoding and its typed
// rejections.
func TestPackMoveRoundTrip(t *testing.T) {
	moves := []Move{
		{Pid: 0},
		{Pid: 3},
		{Pid: 0, Coin: "0"},
		{Pid: 7, Coin: "1"},
		{Pid: 1<<30 - 1, Coin: "1"},
	}
	for _, m := range moves {
		u, err := PackMove(m)
		if err != nil {
			t.Fatalf("PackMove(%+v): %v", m, err)
		}
		if got := UnpackMove(u); got != m {
			t.Fatalf("round trip of %+v gave %+v", m, got)
		}
	}
	for _, bad := range []Move{{Pid: -1}, {Pid: 1 << 30}, {Pid: 0, Coin: "x"}} {
		if _, err := PackMove(bad); !errors.Is(err, ErrPackedRange) {
			t.Fatalf("PackMove(%+v): err = %v, want ErrPackedRange", bad, err)
		}
	}
}

// toyCanon is a test canonicaliser over the toy machine: a state's stage
// is cut as a round, shifted by shift, and rounds renumber to their rank,
// so configurations differing only in stages that keep their order share a
// key. refuse makes it refuse every state, and a shift of 64 or more puts
// every template beyond what a packed template holds.
type toyCanon struct {
	shift  int
	refuse bool
}

func (tc toyCanon) StateTemplate(t *Template, st State) bool {
	s, ok := st.(toyState)
	if !ok || tc.refuse {
		return false
	}
	_, _ = t.WriteString("t")
	t.WriteInt(s.pid)
	_ = t.WriteByte('/')
	t.Round(s.stage + tc.shift)
	_ = t.WriteByte('|')
	_, _ = t.WriteString(string(s.input))
	_ = t.WriteByte('|')
	_, _ = t.WriteString(string(s.got))
	return true
}

func (toyCanon) ValueTemplate(t *Template, v Value) bool {
	_, _ = t.WriteString(string(v))
	return true
}

func (toyCanon) Renumber(rounds, to []int) {
	for i := range rounds {
		to[i] = i
	}
}

// TestPackedKeyMatchesConfigKey holds the packed path of AppendKey to the
// Config path on every reachable toy configuration, for exact keys, a
// canonicaliser with packed templates, one whose rounds are too wide to
// pack and one that refuses every state; the last two take the fallback.
func TestPackedKeyMatchesConfigKey(t *testing.T) {
	for _, canon := range []Canon{nil, toyCanon{}, toyCanon{shift: 64}, toyCanon{refuse: true}} {
		pc := NewCanonCodec(toyConfig(), canon)
		var ks KeyScratch
		walkToy(t, func(c Config) {
			words, err := pc.Pack(c)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := pc.AppendKey(nil, words, &ks)
			if err != nil {
				t.Fatal(err)
			}
			want := AppendKey(nil, canon, c, &ks)
			if string(packed) != string(want) {
				t.Fatalf("canon %+v: packed key %q, Config key %q", canon, packed, want)
			}
			if canon == nil || canon == (toyCanon{refuse: true}) {
				if string(want) != c.Key() {
					t.Fatalf("canon %+v: key %q, want Config.Key %q", canon, want, c.Key())
				}
			}
		})
		e := pc.states.entry(0)
		if packs := (canon == toyCanon{}); packs != (len(e.tmpl) > packedTemplateHeader) {
			t.Fatalf("canon %+v: state 0 template %q", canon, e.tmpl)
		}
	}
}

// FuzzPackedCodecRoundTrip feeds arbitrary words to Unpack on a codec with
// a populated dictionary. The contract under fuzz: never panic; either
// reject with ErrPackedRange or decode to a configuration that repacks to
// the exact input words. AppendKey must accept exactly the same records,
// and render the key the Config path renders for the decoded
// configuration, on an exact and on a canonical codec alike.
func FuzzPackedCodecRoundTrip(f *testing.F) {
	pc := NewPackedCodec(toyConfig())
	canonical := NewCanonCodec(toyConfig(), toyCanon{})
	// Populate the dictionaries with the whole reachable toy space.
	seen := map[string]bool{toyConfig().Key(): true}
	queue := []Config{toyConfig()}
	dst := make([]uint64, pc.Words())
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if err := pc.PackTo(dst, c); err != nil {
			f.Fatal(err)
		}
		if err := canonical.PackTo(make([]uint64, pc.Words()), c); err != nil {
			f.Fatal(err)
		}
		seed := make([]byte, 8*len(dst))
		for i, w := range dst {
			binary.LittleEndian.PutUint64(seed[8*i:], w)
		}
		f.Add(seed)
		for pid := 0; pid < c.NumProcesses(); pid++ {
			if k, _ := PeekOp(c.State(pid)); k == OpDecide {
				continue
			}
			child := c.StepDet(pid)
			if !seen[child.Key()] {
				seen[child.Key()] = true
				queue = append(queue, child)
			}
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, 8*pc.Words()))

	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]uint64, len(raw)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		var ks KeyScratch
		for _, codec := range []*PackedCodec{pc, canonical} {
			c, err := codec.Unpack(words)
			key, keyErr := codec.AppendKey(nil, words, &ks)
			if (err == nil) != (keyErr == nil) {
				t.Fatalf("Unpack error %v, AppendKey error %v", err, keyErr)
			}
			if err != nil {
				if !errors.Is(keyErr, ErrPackedRange) {
					t.Fatalf("AppendKey error is not ErrPackedRange: %v", keyErr)
				}
				continue
			}
			if want := AppendKey(nil, codec.Canon(), c, &ks); string(key) != string(want) {
				t.Fatalf("packed key %q, Config key %q", key, want)
			}
		}
		c, err := pc.Unpack(words)
		if err != nil {
			if !errors.Is(err, ErrPackedRange) {
				t.Fatalf("Unpack error is not ErrPackedRange: %v", err)
			}
			return
		}
		back := make([]uint64, pc.Words())
		if err := pc.PackTo(back, c); err != nil {
			t.Fatalf("repack of decoded config: %v", err)
		}
		for i := range words {
			if words[i] != back[i] {
				t.Fatalf("word %d: %#x repacked to %#x", i, words[i], back[i])
			}
		}
	})
}
