package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faults"
)

// keepAll is the check of a log that accepts every checksum-intact record.
func keepAll(records [][]byte) (int, error) { return len(records), nil }

// openKeeping opens the log at path keeping all but the last drop intact
// records, and returns the records it kept.
func openKeeping(path string, open Opener, drop int) (*Log, [][]byte, error) {
	var kept [][]byte
	l, err := OpenLog(path, open, func(records [][]byte) (int, error) {
		kept = records[:max(len(records)-drop, 0)]
		return len(kept), nil
	})
	return l, kept, err
}

// TestLogRollbackUnderDiskFaults drives Append and Sync into each disk
// fault a FaultyFile scripts — ENOSPC mid-record, a short write, a refused
// fsync — and checks the failed record is rolled back to the previous
// record boundary, the next Append continues a clean stream, and a reopen
// returns exactly the acknowledged records with nothing to truncate.
func TestLogRollbackUnderDiskFaults(t *testing.T) {
	rec := func(b byte) []byte { return bytes.Repeat([]byte{b}, 40) }
	for _, tc := range []struct {
		name string
		arm  func(ff *faults.FaultyFile) // script the fault on the next record
		heal func(ff *faults.FaultyFile)
		want error
	}{
		{
			name: "enospc mid-record",
			arm:  func(ff *faults.FaultyFile) { ff.Budget = ff.Written() + 20 },
			heal: func(ff *faults.FaultyFile) { ff.Budget = 0 },
			want: faults.ErrDiskFull,
		},
		{
			// Header, then three writes per record: length, payload, sum.
			// The sixth write is the failing record's payload.
			name: "short write",
			arm:  func(ff *faults.FaultyFile) { ff.ShortWriteAt = 6 },
			heal: func(ff *faults.FaultyFile) { ff.ShortWriteAt = 0 },
			want: faults.ErrShortWrite,
		},
		{
			name: "failing fsync",
			arm:  func(ff *faults.FaultyFile) { ff.FailSync = true },
			heal: func(ff *faults.FaultyFile) { ff.FailSync = false },
			want: faults.ErrSyncFailed,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.seg")
			var ff *faults.FaultyFile
			opener := func(path string, flag int) (faults.File, error) {
				f, err := faults.OpenOS(path, flag)
				if err != nil {
					return nil, err
				}
				ff = &faults.FaultyFile{F: f}
				return ff, nil
			}
			l, recs, err := openKeeping(path, opener, 0)
			if err != nil || len(recs) != 0 {
				t.Fatalf("fresh open: %d records, %v", len(recs), err)
			}
			commit := func(payload []byte) error {
				if _, err := l.Append(payload); err != nil {
					return err
				}
				return l.Sync()
			}
			if err := commit(rec(1)); err != nil {
				t.Fatal(err)
			}
			boundary := int64(len(segmentMagic)) + recordLen(rec(1))

			tc.arm(ff)
			if err := commit(rec(2)); !errors.Is(err, tc.want) {
				t.Fatalf("faulted commit: %v, want %v", err, tc.want)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != boundary {
				t.Fatalf("after the failed commit the file is %d bytes, want the %d-byte record boundary", info.Size(), boundary)
			}
			tc.heal(ff)
			if err := commit(rec(3)); err != nil {
				t.Fatalf("commit after the fault: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, got, err := openKeeping(path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if want := [][]byte{rec(1), rec(3)}; !reflect.DeepEqual(got, want) {
				t.Fatalf("reopen returned %d records %q, want the acknowledged %q", len(got), got, want)
			}
			if torn := l2.Torn(); torn != nil {
				t.Fatalf("reopen truncated a tail: %+v", torn)
			}
		})
	}
}

// TestOpenLogRefusesUntouched: a check error and a foreign header both
// refuse the file without changing a byte of it.
func TestOpenLogRefusesUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.seg")
	torn := append(validSegmentBytes(), 0x05, 0xAA)
	refuse := errors.New("chain broken")
	for _, tc := range []struct {
		data  []byte
		check func([][]byte) (int, error)
		want  error
	}{
		{torn, func([][]byte) (int, error) { return 0, refuse }, refuse},
		{[]byte("NOTMAGIC and more"), keepAll, ErrCorrupt},
	} {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLog(path, nil, tc.check); !errors.Is(err, tc.want) {
			t.Fatalf("OpenLog: %v, want %v", err, tc.want)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, tc.data) {
			t.Fatalf("refused file changed: %q -> %q", tc.data, got)
		}
	}
}

// FuzzOpenLog: for arbitrary file bytes and a check that drops the last
// few intact records, OpenLog refuses with ErrCorrupt (leaving the file
// alone) or keeps a prefix of the checksum-intact records. A second open
// returns the same records and truncates nothing, and a record appended
// after it reads back.
func FuzzOpenLog(f *testing.F) {
	valid := validSegmentBytes()
	f.Add([]byte{}, uint8(0))
	f.Add([]byte(segmentMagic[:3]), uint8(0))
	f.Add(valid, uint8(0))
	f.Add(valid, uint8(2))
	f.Add(valid[:len(valid)-1], uint8(0))
	f.Add([]byte("NOTMAGIC"), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, drop uint8) {
		path := filepath.Join(t.TempDir(), "log.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := openKeeping(path, nil, int(drop))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt refusal: %v", err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Fatal("a refused file was modified")
			}
			return
		}
		l.Close()
		intact, _, _ := ScanSegment(bytes.NewReader(data))
		if len(recs) > len(intact) || !reflect.DeepEqual(recs, intact[:len(recs)]) {
			t.Fatalf("returned %d records that are not a prefix of the %d intact ones", len(recs), len(intact))
		}

		l2, again, err := openKeeping(path, nil, 0)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatalf("second open returned %d records, first %d", len(again), len(recs))
		}
		if torn := l2.Torn(); torn != nil {
			t.Fatalf("second open truncated %+v", torn)
		}
		if _, err := l2.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		back, err := ReadSegmentFile(path)
		if err != nil {
			t.Fatalf("log after append does not read back: %v", err)
		}
		if len(back) != len(recs)+1 || string(back[len(recs)]) != "appended" {
			t.Fatalf("read back %d records, want %d ending in the appended one", len(back), len(recs)+1)
		}
	})
}
