package model

// Key separators: keySepField terminates each state key and each register
// value; keySepSection divides the state section from the register section.
// Both are control bytes no protocol legitimately emits, so the encoding is
// prefix-free per field and two configurations share a key iff they share
// every state key and every register value.
const (
	keySepField   = '\x1f'
	keySepSection = '\x1e'
)

// KeyWriter is the streaming sink for keys: a state streams its exact key
// into one (StateKeyWriter), and a canonicaliser writes a key template
// through the same methods on a Template. Keys are written
// into reused buffers, so no per-configuration key string is ever
// materialised on the hot path; the string-returning forms (Config.Key,
// State.Key) remain the reference implementations, and the tests
// cross-check the two.
//
// The contract for any key-producing function (a state's Key, a Canon's
// templates): equal keys must imply behaviourally equivalent
// configurations, and behaviourally distinct configurations must produce
// distinct keys. Dedup soundness in the exploration engine rests entirely
// on this property.
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
func (b *KeyBuilder) WriteInt(i int) { b.buf = appendInt(b.buf, i) }

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
