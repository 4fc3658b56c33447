package core

import (
	"context"
	"testing"
)

func TestMachineResolution(t *testing.T) {
	for _, name := range []string{ProtocolDiskRace, ProtocolFlood, ProtocolEagerFlood, ProtocolGreedyFlood, ProtocolCoinFlood} {
		m, _, err := Machine(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Fatalf("Machine(%q).Name() = %q", name, m.Name())
		}
	}
	if _, _, err := Machine("nope"); err == nil {
		t.Fatal("expected error for unknown protocol")
	}
}

func TestAttackFacade(t *testing.T) {
	w, err := Attack(context.Background(), ProtocolDiskRace, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Registers < 2 {
		t.Fatalf("witnessed %d registers, want >= 2", w.Registers)
	}
}

func TestVerifyFacade(t *testing.T) {
	report, err := Verify(context.Background(), ProtocolFlood, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("flood n=2 should verify: %v", report)
	}
	broken, err := Verify(context.Background(), ProtocolGreedyFlood, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if broken.OK() {
		t.Fatal("greedyflood n=2 should fail verification")
	}
}

func TestProposeFacade(t *testing.T) {
	v, err := Propose([]int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("unanimous 1 decided %d", v)
	}
	if _, err := Propose(nil); err == nil {
		t.Fatal("expected error for empty inputs")
	}
}

func TestPerturbFacade(t *testing.T) {
	w, err := Perturb(5)
	if err != nil {
		t.Fatal(err)
	}
	if w.Registers != 4 {
		t.Fatalf("covered %d registers, want 4", w.Registers)
	}
}

func TestVerifyKSetFacade(t *testing.T) {
	report, err := VerifyKSet(context.Background(), 3, 2, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("kset(2) n=3: %v", report)
	}
}

// TestCheckProcesses: process counts a machine cannot start with are
// errors, never Init panics.
func TestCheckProcesses(t *testing.T) {
	for _, tc := range []struct {
		protocol string
		n        int
		ok       bool
	}{
		{ProtocolDiskRace, 1, false},
		{ProtocolDiskRace, 2, true},
		{ProtocolDiskRace, MaxProcesses, true},
		{ProtocolDiskRace, MaxProcesses + 1, false},
		{ProtocolCoinFlood, 2, true},
		{ProtocolCoinFlood, 3, false},
	} {
		m, _, err := Machine(tc.protocol)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckProcesses(m, tc.n); (err == nil) != tc.ok {
			t.Errorf("CheckProcesses(%s, %d) = %v, want ok=%v", tc.protocol, tc.n, err, tc.ok)
		}
	}
}
