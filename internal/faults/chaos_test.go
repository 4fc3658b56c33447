package faults

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestParseChaosScheduleRoundTrip: a full schedule parses, renders back in
// the flag syntax, and re-parses to the same value — the replayability
// contract the chaos harness logs rely on.
func TestParseChaosScheduleRoundTrip(t *testing.T) {
	in := "coord:kill@level=4:restart=1s; worker:victim:kill@level=3; worker:sleepy:stall@level=2:dur=800ms; worker:steady; corrupt-gets=2; fs:enospc@bytes=4096; seed=7"
	s, err := ParseChaosSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Coord == nil || s.Coord.Level != 4 || s.Coord.Restart != time.Second {
		t.Fatalf("coord fault: %+v", s.Coord)
	}
	if len(s.Workers) != 3 {
		t.Fatalf("%d workers", len(s.Workers))
	}
	if s.Workers[0].Fault == nil || s.Workers[0].Fault.Kind != "kill" || s.Workers[0].Fault.Level != 3 {
		t.Fatalf("victim fault: %+v", s.Workers[0].Fault)
	}
	if s.Workers[1].Fault == nil || s.Workers[1].Fault.Kind != "stall" || s.Workers[1].Fault.Stall != 800*time.Millisecond {
		t.Fatalf("sleepy fault: %+v", s.Workers[1].Fault)
	}
	if s.Workers[2].Fault != nil {
		t.Fatalf("steady should be healthy: %+v", s.Workers[2].Fault)
	}
	if s.CorruptGets != 2 || s.Seed != 7 {
		t.Fatalf("corrupt-gets=%d seed=%d", s.CorruptGets, s.Seed)
	}
	if s.FS == nil || s.FS.Budget != 4096 {
		t.Fatalf("fs fault: %+v", s.FS)
	}
	rendered := s.String()
	s2, err := ParseChaosSchedule(rendered)
	if err != nil {
		t.Fatalf("rendered schedule %q does not re-parse: %v", rendered, err)
	}
	if s2.String() != rendered {
		t.Fatalf("round trip changed the schedule:\n%s\n%s", rendered, s2.String())
	}
}

// TestParseChaosScheduleRejects: malformed schedules fail typed with a
// message naming the bad directive.
func TestParseChaosScheduleRejects(t *testing.T) {
	for _, bad := range []string{
		"",                                   // no workers
		"coord:kill@level=4",                 // no workers either
		"worker:w; coord:stall@level=1",      // coordinator can only be killed
		"worker:w; coord:kill@level=-1",      // negative level
		"worker:w; worker:w",                 // duplicate id
		"worker:",                            // empty id
		"worker:w; nonsense",                 // unknown directive
		"worker:w; fs:enospc@bytes=0",        // empty budget
		"worker:w; fs:melt@temp=9000",        // unknown fs fault
		"worker:w; corrupt-gets=-1",          // negative count
		"worker:w; worker:x:explode@level=1", // unknown worker fault kind
		"worker:w; coord:kill@level=1; coord:kill@level=2", // two coord faults
	} {
		if _, err := ParseChaosSchedule(bad); err == nil {
			t.Errorf("schedule %q parsed without error", bad)
		}
	}
}

// TestParseFSFault covers the three fault kinds and their rendering.
func TestParseFSFault(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FSFault
	}{
		{"enospc@bytes=100", FSFault{Budget: 100}},
		{"shortwrite@write=3", FSFault{ShortWriteAt: 3}},
		{"syncfail", FSFault{FailSync: true}},
	} {
		f, err := ParseFSFault(tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if *f != tc.want {
			t.Fatalf("%q parsed to %+v", tc.in, f)
		}
		if f.String() != tc.in {
			t.Fatalf("%q renders as %q", tc.in, f.String())
		}
	}
	if f, err := ParseFSFault(""); err != nil || f != nil {
		t.Fatalf("empty fs fault: %v, %+v", err, f)
	}
}

// TestFSFaultOpener: the opener wraps files so the scripted fault fires,
// and a nil fault's opener passes writes through untouched.
func TestFSFaultOpener(t *testing.T) {
	dir := t.TempDir()
	fault := &FSFault{Budget: 4}
	f, err := fault.Opener()(dir+"/victim", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("12345678")); err == nil {
		t.Fatal("write past the byte budget did not fail")
	} else if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("want injected disk full, got %v", err)
	}
	var nilFault *FSFault
	g, err := nilFault.Opener()(dir+"/healthy", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Write([]byte("12345678")); err != nil {
		t.Fatalf("nil fault injected a failure: %v", err)
	}
}
