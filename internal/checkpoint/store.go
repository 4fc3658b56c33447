package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ErrNoCheckpoint is returned by Latest when the store holds no loadable
// snapshot (empty directory, or every file corrupt).
var ErrNoCheckpoint = errors.New("checkpoint: no loadable snapshot in store")

// keepSnapshots is how many snapshot files Save retains. Two, so the
// newest can be corrupt (torn disk at rename, bad sector) and the run
// still resumes from the one before it.
const keepSnapshots = 2

// snapFiles names the store's snapshot files, snap-<seq>.ckpt.
var snapFiles = SeqFiles{Prefix: "snap-", Suffix: ".ckpt", Width: 12}

// Store manages a directory of snapshot segment files, named
// snap-<seq>.ckpt. Save publishes each snapshot atomically and prunes old
// ones; Latest loads the newest file that decodes cleanly.
type Store struct {
	dir string
}

// Open creates the directory if needed and returns a store on it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: store dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Save publishes snap atomically under its Meta.Seq and prunes all but the
// newest keepSnapshots files. Returns the bytes written.
func (s *Store) Save(snap *Snapshot) (int64, error) {
	n, err := PublishSegment(snapFiles.Path(s.dir, snap.Meta.Seq), nil, snap.encodeRecords())
	if err != nil {
		return n, err
	}
	if seqs := snapFiles.List(s.dir); len(seqs) > keepSnapshots {
		snapFiles.Prune(s.dir, seqs[len(seqs)-keepSnapshots])
	}
	return n, nil
}

// NewestSeq returns the highest snapshot sequence number on disk, whether
// or not that file loads (0 for an empty store). A fresh run continues
// after it, so Save's pruning never takes the run's own new snapshots for
// older than files it found.
func (s *Store) NewestSeq() uint64 {
	seqs := snapFiles.List(s.dir)
	if len(seqs) == 0 {
		return 0
	}
	return seqs[len(seqs)-1]
}

// Latest loads the newest snapshot that passes every integrity check,
// skipping (and reporting via the skipped list) corrupt files. It returns
// ErrNoCheckpoint when nothing loads.
func (s *Store) Latest() (*Snapshot, error) {
	snap, skipped, err := s.latest()
	if err != nil && len(skipped) > 0 {
		return nil, fmt.Errorf("%w (skipped corrupt: %s)", err, strings.Join(skipped, ", "))
	}
	return snap, err
}

func (s *Store) latest() (*Snapshot, []string, error) {
	var skipped []string
	seqs := snapFiles.List(s.dir)
	for i := len(seqs) - 1; i >= 0; i-- {
		path := snapFiles.Path(s.dir, seqs[i])
		name := filepath.Base(path)
		records, err := ReadSegmentFile(path)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				skipped = append(skipped, fmt.Sprintf("%s (%v)", name, err))
				continue
			}
			return nil, skipped, err
		}
		snap, err := DecodeSnapshot(records)
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s (%v)", name, err))
			continue
		}
		return snap, skipped, nil
	}
	return nil, skipped, ErrNoCheckpoint
}
