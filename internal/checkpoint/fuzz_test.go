package checkpoint

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// fuzz seeds: a real segment and a real snapshot give the mutator
// structure to chew on.
func validSegmentBytes() []byte {
	var buf bytes.Buffer
	sw, _ := NewWriter(&buf)
	for _, rec := range sampleSnapshot(3).encodeRecords() {
		sw.Append(rec)
	}
	return buf.Bytes()
}

// FuzzReadSegment is satellite coverage for the segment decoder: arbitrary
// bytes — truncated, bit-flipped, hostile lengths — must either decode to
// records or fail with ErrCorrupt. No panics, no other error class, no
// giant allocations, and whatever decodes must re-encode to an equivalent
// stream (the decoder accepts nothing the writer couldn't have produced).
func FuzzReadSegment(f *testing.F) {
	valid := validSegmentBytes()
	f.Add([]byte{})
	f.Add([]byte(segmentMagic))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(segmentMagic)+1])
	hostile := append([]byte(segmentMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := ReadSegment(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		sw, werr := NewWriter(&buf)
		if werr != nil {
			t.Fatal(werr)
		}
		for _, rec := range records {
			if err := sw.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		back, err := ReadSegment(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded accepted stream rejected: %v", err)
		}
		if len(back) != len(records) {
			t.Fatalf("re-encode changed record count: %d vs %d", len(back), len(records))
		}
	})
}

// FuzzDecodeSnapshot attacks the record-level decoder beneath the checksum
// layer: a mutated record must decode cleanly or fail ErrCorrupt — never
// panic, never return a snapshot that does not survive a re-encode
// roundtrip (no silent partial loads).
func FuzzDecodeSnapshot(f *testing.F) {
	for _, rec := range sampleSnapshot(3).encodeRecords() {
		f.Add(rec)
	}
	f.Add([]byte{})
	f.Add([]byte{secMeta})
	f.Add([]byte{secRetiredQuery, 0xFF, 0xFF, 0xFF})
	// The in-flight query record the older format wrote.
	old, err := ReadSegmentFile(inFlightSnapshot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old[len(old)-1])
	meta := encodeMeta(&Meta{Protocol: "p", N: 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, records := range [][][]byte{
			{data},
			{meta, data},
		} {
			snap, err := DecodeSnapshot(records)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("non-ErrCorrupt failure: %v", err)
				}
				continue
			}
			back, err := DecodeSnapshot(snap.encodeRecords())
			if err != nil {
				t.Fatalf("accepted snapshot does not re-decode: %v", err)
			}
			if !reflect.DeepEqual(back, snap) {
				t.Fatalf("re-encode roundtrip drifted:\n got %+v\nwant %+v", back, snap)
			}
		}
	})
}
