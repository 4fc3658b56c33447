package check

import (
	"context"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
)

func TestConsensusAcceptsFloodN2(t *testing.T) {
	report, err := Consensus(context.Background(), consensus.Flood{}, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("flood n=2 rejected: %v", report)
	}
	if report.Inputs != 4 {
		t.Fatalf("checked %d input vectors, want 4", report.Inputs)
	}
}

func TestConsensusFindsAgreementViolation(t *testing.T) {
	report, err := Consensus(context.Background(), consensus.GreedyFlood{}, 2, Options{SkipSolo: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("greedyflood accepted")
	}
	v := report.Violations[0]
	if v.Kind != Agreement {
		t.Fatalf("kind = %v, want agreement", v.Kind)
	}
	if len(v.Path) == 0 {
		t.Fatal("violation has no witness path")
	}
	if !strings.Contains(v.String(), "agreement violation") {
		t.Fatalf("violation string: %q", v.String())
	}
}

func TestConsensusCapsAreReported(t *testing.T) {
	report, err := Consensus(context.Background(), consensus.DiskRace{}, 3, Options{
		Explore:  explore.Options{Canon: consensus.DiskRace{}, MaxConfigs: 500},
		SkipSolo: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Capped {
		t.Fatal("bounded run not marked capped")
	}
	if !strings.Contains(report.String(), "[capped]") {
		t.Fatalf("report string hides the cap: %q", report.String())
	}
}

func TestBinaryInputsEnumeration(t *testing.T) {
	got := BinaryInputs(3)
	if len(got) != 8 {
		t.Fatalf("got %d vectors, want 8", len(got))
	}
	seen := map[string]bool{}
	for _, in := range got {
		key := ""
		for _, v := range in {
			key += string(v)
		}
		if seen[key] {
			t.Fatalf("duplicate vector %q", key)
		}
		seen[key] = true
	}
}

func TestMaxViolationsCollectsSeveral(t *testing.T) {
	report, err := Consensus(context.Background(), consensus.GreedyFlood{}, 2, Options{SkipSolo: true, MaxViolations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Violations) < 2 {
		t.Fatalf("collected %d violations, want >= 2", len(report.Violations))
	}
}

func TestViolationKindStrings(t *testing.T) {
	want := map[ViolationKind]string{
		Agreement:       "agreement",
		Validity:        "validity",
		SoloTermination: "solo-termination",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}
