package dist

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
)

// TestNewRunRejectsUnstartableN: a process count the protocol cannot start
// with is an error from NewRun and from RunFromSpec, the worker's side of
// the same resolution, instead of a panic building the root.
func TestNewRunRejectsUnstartableN(t *testing.T) {
	for _, tc := range []struct {
		protocol string
		n        int
	}{
		{core.ProtocolCoinFlood, 3},
		{core.ProtocolDiskRace, 1},
		{core.ProtocolDiskRace, core.MaxProcesses + 1},
	} {
		if _, err := NewRun(tc.protocol, tc.n, 1, 0, time.Second); err == nil {
			t.Errorf("NewRun(%s, n=%d) succeeded", tc.protocol, tc.n)
		}
		spec := Spec{Protocol: tc.protocol, N: tc.n, Slices: 1, LeaseMS: 1000, FPVersion: explore.FingerprintVersion}
		if _, err := RunFromSpec(spec); err == nil {
			t.Errorf("RunFromSpec(%s, n=%d) succeeded", tc.protocol, tc.n)
		}
	}
}
