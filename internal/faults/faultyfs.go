package faults

import (
	"errors"
	"io"
)

// Typed errors a FaultyFile injects. They model the disk-pressure failures
// a long-running proof must surface loudly instead of absorbing silently:
// a full volume, a filesystem that acknowledges fewer bytes than asked, and
// an fsync the kernel refuses.
var (
	// ErrDiskFull is returned once a FaultyFile's byte budget is spent —
	// the moment the simulated volume runs out of space (ENOSPC).
	ErrDiskFull = errors.New("faults: injected disk full")
	// ErrShortWrite is returned by a write the FaultyFile truncated: the
	// reported count is less than len(p) and no error from the underlying
	// file explains it.
	ErrShortWrite = errors.New("faults: injected short write")
	// ErrSyncFailed is returned by Sync when the FaultyFile is scripted to
	// refuse durability.
	ErrSyncFailed = errors.New("faults: injected fsync failure")
)

// File is the slice of *os.File the fault-injected write paths consume:
// enough to write, flush and identify a file. Both *os.File and *FaultyFile
// satisfy it, so a test swaps one for the other at the file-creation hook.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FaultyFile wraps a File and injects deterministic filesystem faults: an
// ENOSPC after Budget bytes, a short write on the ShortWriteAt-th Write
// call, and an fsync failure. It is the filesystem-side sibling of
// CrashWriter: where a CrashWriter kills the process mid-write, a
// FaultyFile keeps the process alive on a disk that has started lying,
// which is exactly the condition under which checkpoint and journal
// segments must fail typed instead of truncating silently.
//
// Faults mimic the kernel's behaviour: a budget that falls inside a Write
// forwards the surviving prefix and reports the count it wrote, so a
// caller that ignores the error has durably written garbage — and the
// checksummed read path must still catch it.
type FaultyFile struct {
	F File
	// Budget is the number of bytes accepted before ErrDiskFull; <= 0
	// means unlimited.
	Budget int64
	// ShortWriteAt, when > 0, truncates the ShortWriteAt-th Write call
	// (1-based) to half its length and reports ErrShortWrite.
	ShortWriteAt int
	// FailSync makes every Sync return ErrSyncFailed (after forwarding to
	// the underlying file, so the bytes may well be durable — the caller
	// just cannot know).
	FailSync bool

	written int64
	writes  int
}

// Write forwards p, or the prefix the scripted faults allow.
func (f *FaultyFile) Write(p []byte) (int, error) {
	f.writes++
	if f.ShortWriteAt > 0 && f.writes == f.ShortWriteAt && len(p) > 1 {
		n, err := f.F.Write(p[:len(p)/2])
		f.written += int64(n)
		if err != nil {
			return n, err
		}
		return n, ErrShortWrite
	}
	if f.Budget > 0 {
		remaining := f.Budget - f.written
		if remaining <= 0 {
			return 0, ErrDiskFull
		}
		if int64(len(p)) > remaining {
			n, err := f.F.Write(p[:remaining])
			f.written += int64(n)
			if err != nil {
				return n, err
			}
			return n, ErrDiskFull
		}
	}
	n, err := f.F.Write(p)
	f.written += int64(n)
	return n, err
}

// Sync forwards to the underlying file and then fails if scripted to.
func (f *FaultyFile) Sync() error {
	err := f.F.Sync()
	if f.FailSync {
		return ErrSyncFailed
	}
	return err
}

// Close forwards to the underlying file.
func (f *FaultyFile) Close() error { return f.F.Close() }

// Name reports the underlying file's name.
func (f *FaultyFile) Name() string { return f.F.Name() }

// Written reports how many bytes reached the underlying file.
func (f *FaultyFile) Written() int64 { return f.written }
