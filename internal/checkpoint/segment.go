package checkpoint

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// segmentMagic opens every segment file: a human-greppable tag plus a
// format version byte and a newline so `head -c8` identifies the file.
const segmentMagic = "SBCKPT\x01\n"

// maxRecordLen bounds a single record's payload. It exists purely so a
// corrupt length prefix fails fast as ErrCorrupt instead of attempting a
// multi-exabyte allocation; real snapshots stay far below it.
const maxRecordLen = 1 << 32

// eagerRecordLen is the largest payload allocated in full before its bytes
// are read. A longer declared length may be a corrupt or hostile prefix on
// a short stream (a peer-uploaded dist chunk, say), so its buffer grows
// only as bytes arrive.
const eagerRecordLen = 1 << 20

// Writer appends checksummed records to a segment stream:
//
//	[uvarint payload length][payload][sha256(payload), 32 bytes]
//
// The stream itself carries no trailer; a cleanly terminated file simply
// ends after a record's checksum. Torn tails (crash mid-record) surface as
// ErrCorrupt on read, which is why whole files are published only via
// WriteFileAtomic.
type Writer struct {
	w     io.Writer
	bytes int64
}

// NewWriter starts a segment stream on w by emitting the magic header.
func NewWriter(w io.Writer) (*Writer, error) {
	sw := &Writer{w: w}
	if err := sw.write([]byte(segmentMagic)); err != nil {
		return nil, err
	}
	return sw, nil
}

// NewAppendWriter continues an existing segment stream on w without
// re-emitting the magic header. The caller is expected to have validated
// the stream's header and intact prefix via ScanSegment and positioned w
// at the end of that prefix — OpenLog's reopen path.
func NewAppendWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

func (sw *Writer) write(p []byte) error {
	n, err := sw.w.Write(p)
	sw.bytes += int64(n)
	if err != nil {
		return fmt.Errorf("checkpoint: segment write: %w", err)
	}
	return nil
}

// Append writes one record.
func (sw *Writer) Append(payload []byte) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if err := sw.write(lenBuf[:n]); err != nil {
		return err
	}
	if err := sw.write(payload); err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	return sw.write(sum[:])
}

// Bytes returns the total bytes written so far, header included.
func (sw *Writer) Bytes() int64 { return sw.bytes }

// recordLen is the on-disk size of the record Append writes for payload.
func recordLen(payload []byte) int64 {
	var lenBuf [binary.MaxVarintLen64]byte
	return int64(binary.PutUvarint(lenBuf[:], uint64(len(payload))) + len(payload) + sha256.Size)
}

// segReader buffers a segment stream while tracking the byte offset of
// everything consumed so far, which is what lets ScanSegment report where
// the intact prefix of a torn file ends.
type segReader struct {
	br  *bufio.Reader
	off int64
}

func (s *segReader) Read(p []byte) (int, error) {
	n, err := s.br.Read(p)
	s.off += int64(n)
	return n, err
}

func (s *segReader) ReadByte() (byte, error) {
	b, err := s.br.ReadByte()
	if err == nil {
		s.off++
	}
	return b, err
}

// readRecords decodes a segment stream record by record. It returns the
// records of the longest intact prefix plus the stream offset where that
// prefix ends; err is nil only when the stream terminated cleanly at a
// record boundary. A header failure returns offset 0.
func readRecords(r io.Reader) (records [][]byte, validOff int64, err error) {
	sr := &segReader{br: bufio.NewReaderSize(r, 1<<16)}
	magic := make([]byte, len(segmentMagic))
	if _, err := io.ReadFull(sr, magic); err != nil {
		return nil, 0, corruptf("segment header (%v)", err)
	}
	if string(magic) != segmentMagic {
		return nil, 0, corruptf("segment magic %q", magic)
	}
	validOff = sr.off
	for {
		length, err := binary.ReadUvarint(sr)
		if err == io.EOF {
			return records, validOff, nil
		}
		if err != nil {
			return records, validOff, corruptf("record %d length (%v)", len(records), err)
		}
		if length > maxRecordLen {
			return records, validOff, corruptf("record %d length %d exceeds limit", len(records), length)
		}
		payload, err := readPayload(sr, int(length))
		if err != nil {
			return records, validOff, corruptf("record %d payload (%v)", len(records), err)
		}
		var sum [sha256.Size]byte
		if _, err := io.ReadFull(sr, sum[:]); err != nil {
			return records, validOff, corruptf("record %d checksum (%v)", len(records), err)
		}
		if sha256.Sum256(payload) != sum {
			return records, validOff, corruptf("record %d checksum mismatch", len(records))
		}
		records = append(records, payload)
		validOff = sr.off
	}
}

// readPayload reads a record payload of n bytes. Up to eagerRecordLen it
// allocates exactly n up front; beyond that the buffer grows with the
// bytes actually read, so memory tracks the stream, not the length prefix.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= eagerRecordLen {
		payload := make([]byte, n)
		_, err := io.ReadFull(r, payload)
		return payload, err
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(payload) < n {
		err = io.ErrUnexpectedEOF
	}
	return payload, err
}

// ReadSegment reads a whole segment stream, validating the magic and every
// record checksum. Any malformation — zero-length file, bad magic,
// truncated length/payload/checksum, checksum mismatch — is reported as an
// error wrapping ErrCorrupt; a partial prefix of records is never returned.
func ReadSegment(r io.Reader) ([][]byte, error) {
	records, _, err := readRecords(r)
	if err != nil {
		return nil, err
	}
	return records, nil
}

// ScanSegment reads a segment stream like ReadSegment but tolerates a torn
// tail (a crash mid-append): it returns every record of the longest intact
// prefix plus the byte offset where that prefix ends, so an append-mode
// caller can truncate the file there and keep going. tailErr is nil when
// the stream ended cleanly at a record boundary and otherwise wraps
// ErrCorrupt describing the first malformation; the returned records and
// offset are valid either way. A missing or bad magic header yields no
// records and offset 0 — such a file has no intact prefix to keep.
func ScanSegment(r io.Reader) (records [][]byte, validOff int64, tailErr error) {
	return readRecords(r)
}

// ReadSegmentFile reads and validates the segment file at path.
func ReadSegmentFile(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadSegment(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
