package trace

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/valency"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// goldenWitness constructs the reference n=3 DiskRace witness with a
// single-threaded oracle. Workers must be 1: the parallel engine may elect
// a different same-level representative path on different runs, and the
// golden files pin one exact rendering.
func goldenWitness(t *testing.T) *adversary.Theorem1Witness {
	t.Helper()
	engine := adversary.New(valency.New(explore.Options{
		Canon:   consensus.DiskRace{},
		Workers: 1,
	}))
	w, err := engine.Theorem1(context.Background(), consensus.DiskRace{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -update` to create the golden files)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(if the change is intentional, regenerate with `go test ./internal/trace -update`)",
			name, got, want)
	}
}

// TestGoldenTheorem1DOT pins the exact Figure-4-style DOT rendering of the
// reference witness, byte for byte.
func TestGoldenTheorem1DOT(t *testing.T) {
	checkGolden(t, "theorem1_diskrace_n3.dot.golden", Theorem1DOT(goldenWitness(t)))
}

// TestGoldenCoverTable pins the exact covering-assignment table of the
// reference witness.
func TestGoldenCoverTable(t *testing.T) {
	checkGolden(t, "cover_table_diskrace_n3.golden", CoverTable(goldenWitness(t)))
}

// TestGoldenChain pins the configuration-chain rendering of the reference
// witness's phase decomposition (α, φ, ζ as labelled arcs).
func TestGoldenChain(t *testing.T) {
	w := goldenWitness(t)
	segments := make([]Segment, 0, len(w.Phases))
	rest := w.Execution
	for _, ph := range w.Phases {
		segments = append(segments, Segment{Label: ph.Label, Path: rest[:ph.Steps]})
		rest = rest[ph.Steps:]
	}
	checkGolden(t, "chain_diskrace_n3.dot.golden", Chain("Theorem 1 construction (diskrace, n=3)", segments))
}
