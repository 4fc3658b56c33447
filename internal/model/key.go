package model

import "strconv"

// Key separators: keySepField terminates each state key and each register
// value; keySepSection divides the state section from the register section.
// Both are control bytes no protocol legitimately emits, so the encoding is
// prefix-free per field and two configurations share a key iff they share
// every state key and every register value.
const (
	keySepField   = '\x1f'
	keySepSection = '\x1e'
)

// KeyWriter is the streaming sink for configuration keys. The exploration
// engine feeds canonical keys through a KeyWriter straight into a hash
// state, so no per-configuration key string is ever materialised on the hot
// path; the string-returning forms (Config.Key, State.Key, protocol
// canonicalisers) remain the reference implementations, and the explore
// package cross-checks the two in its tests.
//
// The contract for any key-producing function (an explore KeyTo, a
// canonicaliser's string form, a state's Key): equal byte streams must imply behaviourally equivalent
// configurations, and behaviourally distinct configurations must produce
// distinct streams. Dedup soundness in the exploration engine rests
// entirely on this property.
type KeyWriter interface {
	// Write appends p (io.Writer-compatible; the error is always nil for
	// the sinks this repository ships).
	Write(p []byte) (int, error)
	// WriteByte appends a single byte.
	WriteByte(c byte) error
	// WriteString appends s without converting it to []byte.
	WriteString(s string) (int, error)
	// WriteInt appends the decimal representation of i without allocating
	// (the reason this interface exists instead of bare io.Writer).
	WriteInt(i int)
}

// KeyBuilder is the canonical KeyWriter: an append-only byte buffer that is
// reused across configurations (Reset keeps the backing array). It is not
// safe for concurrent use; the exploration engine keeps one per worker.
type KeyBuilder struct {
	buf []byte
}

// Write implements io.Writer; the error is always nil.
func (b *KeyBuilder) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// WriteByte implements io.ByteWriter; the error is always nil.
func (b *KeyBuilder) WriteByte(c byte) error {
	b.buf = append(b.buf, c)
	return nil
}

// WriteString implements io.StringWriter; the error is always nil.
func (b *KeyBuilder) WriteString(s string) (int, error) {
	b.buf = append(b.buf, s...)
	return len(s), nil
}

// WriteInt appends the decimal representation of i. One- and two-digit
// non-negatives — the overwhelming majority of key fields (pids, rounds,
// ballot counters) — are formatted inline; everything else goes through
// strconv.
func (b *KeyBuilder) WriteInt(i int) {
	if uint(i) < 10 {
		b.buf = append(b.buf, byte('0'+i))
		return
	}
	if uint(i) < 100 {
		b.buf = append(b.buf, byte('0'+i/10), byte('0'+i%10))
		return
	}
	b.buf = strconv.AppendInt(b.buf, int64(i), 10)
}

// Bytes returns the accumulated key. The slice aliases the builder's
// buffer and is invalidated by the next Reset or write.
func (b *KeyBuilder) Bytes() []byte { return b.buf }

// Len returns the number of accumulated bytes.
func (b *KeyBuilder) Len() int { return len(b.buf) }

// String returns the accumulated key as a freshly allocated string.
func (b *KeyBuilder) String() string { return string(b.buf) }

// Reset empties the builder, keeping the backing array for reuse.
func (b *KeyBuilder) Reset() { b.buf = b.buf[:0] }

// StateKeyWriter is an optional extension of State: implementations stream
// exactly the bytes State.Key would return, letting Config.KeyTo avoid the
// per-state string allocation. The two forms must agree byte for byte.
type StateKeyWriter interface {
	KeyTo(w KeyWriter)
}

// KeyTo streams the canonical encoding of the configuration into w,
// byte-for-byte identical to Key. States implementing StateKeyWriter are
// streamed without allocation; others fall back to their Key string.
func (c Config) KeyTo(w KeyWriter) {
	for _, s := range c.states {
		if sw, ok := s.(StateKeyWriter); ok {
			sw.KeyTo(w)
		} else {
			_, _ = w.WriteString(s.Key())
		}
		_ = w.WriteByte(keySepField)
	}
	_ = w.WriteByte(keySepSection)
	for _, v := range c.regs {
		_, _ = w.WriteString(string(v))
		_ = w.WriteByte(keySepField)
	}
}
