package model

import (
	"slices"
	"strconv"
)

// Canon is a protocol's canonicaliser: a state identity coarser than
// Config.Key that quotients an unbounded space by a bisimulation, so that
// exhaustive search terminates (consensus.DiskRace renumbers its ballot
// rounds). A canonical key is built from key templates, one per process
// state and one per register value: the slot's canonical key bytes with
// every round field cut out. Rendering a configuration's key collects the
// rounds its templates cut, renumbers them with Renumber, and writes the
// renumbered rounds into the cuts. The exploration engine keeps one template
// per dictionary id of a PackedCodec, so a packed configuration's key is
// rendered without unpacking it; AppendKey renders a Config's key from the
// same templates built on the fly. Both produce the same bytes by
// construction.
//
// The key must identify only behaviourally equivalent configurations;
// dedup soundness rests on it. A Canon must be safe for concurrent use and
// comparable with == (explore holds a codec and its options to one Canon).
type Canon interface {
	// StateTemplate writes s's template into t and reports whether s is a
	// state of the canonicaliser's protocol. A configuration holding a
	// state it refuses is keyed exactly, as Config.Key.
	StateTemplate(t *Template, s State) bool
	// ValueTemplate is StateTemplate for a register value.
	ValueTemplate(t *Template, v Value) bool
	// Renumber sets to[i] to the canonical round of rounds[i]. rounds are
	// the distinct rounds one configuration's templates cut, ascending,
	// and len(to) == len(rounds).
	Renumber(rounds, to []int)
}

// Template is a key under construction with its round fields cut out:
// literal bytes, and for each Round call the offset in them and the raw
// round it held. A canonicaliser writes the literal parts with the
// KeyWriter methods, exactly as it would stream a key. The zero value is
// ready.
type Template struct {
	lit  []byte
	cuts []templateCut
}

type templateCut struct {
	off, round int
}

// Reset empties the template, keeping its buffers.
func (t *Template) Reset() {
	t.lit = t.lit[:0]
	t.cuts = t.cuts[:0]
}

// WriteByte appends c to the literal bytes; the error is always nil.
func (t *Template) WriteByte(c byte) error {
	t.lit = append(t.lit, c)
	return nil
}

// WriteString appends s to the literal bytes; the error is always nil.
func (t *Template) WriteString(s string) (int, error) {
	t.lit = append(t.lit, s...)
	return len(s), nil
}

// WriteInt appends the decimal form of i to the literal bytes.
func (t *Template) WriteInt(i int) { t.lit = appendInt(t.lit, i) }

// Round cuts a round field: the rendered key holds k's canonical round
// here, written in decimal.
func (t *Template) Round(k int) {
	t.cuts = append(t.cuts, templateCut{off: len(t.lit), round: k})
}

// appendInt appends the decimal form of i, formatting the one- and
// two-digit non-negatives that dominate key fields inline.
func appendInt(dst []byte, i int) []byte {
	if uint(i) < 10 {
		return append(dst, byte('0'+i))
	}
	if uint(i) < 100 {
		return append(dst, byte('0'+i/10), byte('0'+i%10))
	}
	return strconv.AppendInt(dst, int64(i), 10)
}

// Packed templates. A PackedCodec built with a Canon stores each
// dictionary id's template as one string: the bitset of the rounds it cuts
// (8 bytes, little-endian), the cut count, two bytes per cut (offset in the
// literal, raw round), then the literal. The bitset is what lets a packed
// configuration be renumbered from one OR per slot. A template that does
// not fit that form — a round of 64 or more, over 255 cuts, or a cut past
// byte 255 of the literal — is not stored, and configurations holding it
// take the Config path.
const packedTemplateHeader = 9

// pack appends t's packed form to dst and reports whether it fits.
func (t *Template) pack(dst []byte) ([]byte, bool) {
	if len(t.cuts) > 255 {
		return dst, false
	}
	var rounds uint64
	for _, c := range t.cuts {
		if c.round < 0 || c.round >= 64 || c.off > 255 {
			return dst, false
		}
		rounds |= 1 << uint(c.round)
	}
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(rounds>>(8*i)))
	}
	dst = append(dst, byte(len(t.cuts)))
	for _, c := range t.cuts {
		dst = append(dst, byte(c.off), byte(c.round))
	}
	return append(dst, t.lit...), true
}

// packedRounds returns the round bitset of a packed template.
func packedRounds(tmpl string) uint64 {
	_ = tmpl[7]
	return uint64(tmpl[0]) | uint64(tmpl[1])<<8 | uint64(tmpl[2])<<16 | uint64(tmpl[3])<<24 |
		uint64(tmpl[4])<<32 | uint64(tmpl[5])<<40 | uint64(tmpl[6])<<48 | uint64(tmpl[7])<<56
}

// appendPacked renders a packed template, writing to[r] into each cut of
// raw round r.
func appendPacked(dst []byte, tmpl string, to *[64]int) []byte {
	end := packedTemplateHeader + 2*int(tmpl[8])
	lit := tmpl[end:]
	prev := 0
	for i := packedTemplateHeader; i < end; i += 2 {
		off := int(tmpl[i])
		dst = append(dst, lit[prev:off]...)
		dst = appendInt(dst, to[tmpl[i+1]&63])
		prev = off
	}
	return append(dst, lit[prev:]...)
}

// KeyScratch is one goroutine's reusable working set for rendering keys
// (AppendKey and PackedCodec.AppendKey). The zero value is ready.
type KeyScratch struct {
	t      Template
	kb     KeyBuilder
	rounds []int
	to     []int
	table  [64]int
	tmpls  []string
	states []State
	regs   []Value
}

// renumber sets ks.to to canon's renumbering of ks.rounds, the distinct
// rounds of one configuration in ascending order.
func (ks *KeyScratch) renumber(canon Canon) {
	if cap(ks.to) < len(ks.rounds) {
		ks.to = make([]int, len(ks.rounds), 2*len(ks.rounds))
	}
	ks.to = ks.to[:len(ks.rounds)]
	canon.Renumber(ks.rounds, ks.to)
}

// AppendKey appends c's key under canon to dst: the bytes every
// configuration fingerprint digests. A nil canon, or a configuration
// holding a slot canon refuses, gives Config.Key's bytes. Otherwise the
// key is each state's template followed by '\x1f', then '\x1e', then each
// register's template followed by '\x1f', with every cut round renumbered
// over the rounds the whole configuration holds.
func AppendKey(dst []byte, canon Canon, c Config, ks *KeyScratch) []byte {
	if canon == nil {
		return ks.appendExact(dst, c)
	}
	t := &ks.t
	t.Reset()
	for _, s := range c.states {
		if !canon.StateTemplate(t, s) {
			return ks.appendExact(dst, c)
		}
		_ = t.WriteByte(keySepField)
	}
	_ = t.WriteByte(keySepSection)
	for _, v := range c.regs {
		if !canon.ValueTemplate(t, v) {
			return ks.appendExact(dst, c)
		}
		_ = t.WriteByte(keySepField)
	}
	ks.rounds = ks.rounds[:0]
	for _, cut := range t.cuts {
		ks.rounds = append(ks.rounds, cut.round)
	}
	slices.Sort(ks.rounds)
	ks.rounds = slices.Compact(ks.rounds)
	ks.renumber(canon)
	prev := 0
	for _, cut := range t.cuts {
		dst = append(dst, t.lit[prev:cut.off]...)
		i, _ := slices.BinarySearch(ks.rounds, cut.round)
		dst = appendInt(dst, ks.to[i])
		prev = cut.off
	}
	return append(dst, t.lit[prev:]...)
}

// appendExact appends Config.Key's bytes.
func (ks *KeyScratch) appendExact(dst []byte, c Config) []byte {
	ks.kb.buf = dst
	c.KeyTo(&ks.kb)
	dst = ks.kb.buf
	ks.kb.buf = nil
	return dst
}
