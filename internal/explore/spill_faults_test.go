package explore

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/faults"
)

// writeTestChunk writes a representative packed spill chunk (ids plus
// stride-wide words) and returns its path.
func writeTestChunk(t *testing.T, stride int) (string, []int32, []uint64) {
	t.Helper()
	dir := t.TempDir()
	ids := []int32{0, 3, 7, 150, 4095, 1 << 20}
	words := make([]uint64, len(ids)*stride)
	for i := range words {
		words[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	path, _, err := writeSpillChunk(dir, ids, words)
	if err != nil {
		t.Fatalf("writeSpillChunk: %v", err)
	}
	return path, ids, words
}

// TestSpillChunkRoundTrip pins the happy path of the checksummed format.
func TestSpillChunkRoundTrip(t *testing.T) {
	const stride = 3
	path, ids, words := writeTestChunk(t, stride)
	gotIDs, gotWords, err := readSpillChunk(path, stride, nil, nil)
	if err != nil {
		t.Fatalf("readSpillChunk: %v", err)
	}
	if !slices.Equal(gotIDs, ids) || !slices.Equal(gotWords, words) {
		t.Fatalf("round trip mismatch: ids %v want %v", gotIDs, ids)
	}
}

// TestSpillChunkBitFlipExhaustive flips every bit of a real spill chunk
// file, one at a time, and requires every flip to surface as a typed
// ErrSpillCorrupt — never a panic, never silently different ids. It
// mirrors the segment bit-flip test in internal/checkpoint: the id list
// steers witness replay, so a silently wrong id is a corrupted proof.
func TestSpillChunkBitFlipExhaustive(t *testing.T) {
	const stride = 2
	path, _, _ := writeTestChunk(t, stride)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := filepath.Join(t.TempDir(), "mutated.spill")
	for byteIdx := range orig {
		for bit := 0; bit < 8; bit++ {
			data := slices.Clone(orig)
			data[byteIdx] ^= 1 << bit
			if err := os.WriteFile(mut, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := readSpillChunk(mut, stride, nil, nil); !errors.Is(err, ErrSpillCorrupt) {
				t.Fatalf("flip byte %d bit %d: readSpillChunk err = %v, want ErrSpillCorrupt", byteIdx, bit, err)
			}
		}
	}
}

// TestSpillChunkTruncation cuts the file at every length and requires a
// typed error for each prefix.
func TestSpillChunkTruncation(t *testing.T) {
	const stride = 2
	path, _, _ := writeTestChunk(t, stride)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := filepath.Join(t.TempDir(), "torn.spill")
	for cut := 0; cut < len(orig); cut++ {
		if err := os.WriteFile(mut, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readSpillChunk(mut, stride, nil, nil); !errors.Is(err, ErrSpillCorrupt) {
			t.Fatalf("truncate at %d: err = %v, want ErrSpillCorrupt", cut, err)
		}
	}
}

// swapSpillFile installs a fault-injecting spill file factory for the test.
func swapSpillFile(t *testing.T, wrap func(f spillFile) spillFile) {
	t.Helper()
	prev := newSpillFile
	newSpillFile = func(dir string) (spillFile, error) {
		f, err := prev(dir)
		if err != nil {
			return nil, err
		}
		return wrap(f), nil
	}
	t.Cleanup(func() { newSpillFile = prev })
}

// TestWriteSpillChunkFaultyFS drives writeSpillChunk over a faulty
// filesystem and requires the injected conditions to surface as typed
// errors with the partial file removed — a spill under disk pressure must
// fail loudly, not truncate silently.
func TestWriteSpillChunkFaultyFS(t *testing.T) {
	ids := make([]int32, 4096)
	for i := range ids {
		ids[i] = int32(i)
	}
	words := make([]uint64, len(ids)*2)

	t.Run("disk full", func(t *testing.T) {
		swapSpillFile(t, func(f spillFile) spillFile {
			return &faults.FaultyFile{F: f.(faults.File), Budget: 100}
		})
		dir := t.TempDir()
		_, _, err := writeSpillChunk(dir, ids, words)
		if !errors.Is(err, faults.ErrDiskFull) {
			t.Fatalf("err = %v, want ErrDiskFull", err)
		}
		assertNoSpillFiles(t, dir)
	})

	t.Run("short write", func(t *testing.T) {
		swapSpillFile(t, func(f spillFile) spillFile {
			return &faults.FaultyFile{F: f.(faults.File), ShortWriteAt: 1}
		})
		dir := t.TempDir()
		_, _, err := writeSpillChunk(dir, ids, words)
		if !errors.Is(err, faults.ErrShortWrite) {
			t.Fatalf("err = %v, want ErrShortWrite", err)
		}
		assertNoSpillFiles(t, dir)
	})
}

func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("partial spill file left behind: %v", entries)
	}
}

// TestSpillGovernorDisablesOnFaultyDisk proves the governor's contract end
// to end: a spill write that fails under disk pressure disables spilling
// for the rest of the search instead of failing the proof, and the failure
// is typed all the way up.
func TestSpillGovernorDisablesOnFaultyDisk(t *testing.T) {
	swapSpillFile(t, func(f spillFile) spillFile {
		return &faults.FaultyFile{F: f.(faults.File), Budget: 10}
	})
	g := &spillGovernor{dir: t.TempDir(), budget: 1}
	f := &frontier{stride: 1}
	f.addPacked(1, []uint64{42}, nil)
	f.memBytes = 100 // force over budget
	g.maybeSpill(f)
	if !g.disabled {
		t.Fatal("governor still enabled after a failed spill write")
	}
	if len(f.spilled) != 0 {
		t.Fatal("failed spill chunk was recorded")
	}
	if len(f.ids) != 1 {
		t.Fatal("in-memory frontier was dropped despite the failed spill")
	}
}
