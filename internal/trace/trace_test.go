package trace

import (
	"context"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/valency"
)

func witness(t *testing.T) (*adversary.Theorem1Witness, model.Config) {
	t.Helper()
	engine := adversary.New(valency.New(explore.Options{
		Canon: consensus.DiskRace{},
	}))
	w, err := engine.Theorem1(context.Background(), consensus.DiskRace{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return w, model.NewConfig(consensus.DiskRace{}, w.Inputs)
}

func TestTranscriptShape(t *testing.T) {
	w, initial := witness(t)
	out := Transcript(initial, w.Execution)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(w.Execution) {
		t.Fatalf("%d transcript lines for %d steps", len(lines), len(w.Execution))
	}
	for _, line := range lines {
		if !strings.Contains(line, "regs=") {
			t.Fatalf("line missing register snapshot: %q", line)
		}
	}
}

func TestTheorem1DOTWellFormed(t *testing.T) {
	w, _ := witness(t)
	dot := Theorem1DOT(w)
	for _, want := range []string{"digraph theorem1", "-> W", "Lemma 4", "Lemma 3", "Lemma 2", "covers", "}"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
	if got := strings.Count(dot, "style=dashed"); got != w.Registers {
		t.Fatalf("%d cover edges for %d registers", got, w.Registers)
	}
}

func TestCoverTable(t *testing.T) {
	w, _ := witness(t)
	table := CoverTable(w)
	if !strings.Contains(table, "distinct registers: 2 (lower bound n-1 = 2)") {
		t.Fatalf("table missing summary:\n%s", table)
	}
}

func TestChainRendersSegments(t *testing.T) {
	dot := Chain("Lemma 4", []Segment{
		{Label: "γ by P"},
		{Label: "η by P-{z}", Path: model.Path{{Pid: 0}, {Pid: 1}}},
	})
	for _, want := range []string{"digraph construction", "γ by P (ε)", "η by P-{z} (2 steps)"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("Chain output missing %q:\n%s", want, dot)
		}
	}
}
