package adversary

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/valency"
)

// syncBuffer lets the engine goroutine write trace records while the test
// goroutine polls the debug endpoint.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTheorem1N4Traced runs the real n=4 DiskRace construction with the
// observability layer enabled end to end: the JSONL trace must bracket
// every Lemma 1 peel in a span, and the /progress endpoint must serve a
// well-formed snapshot while the construction is still running (experiment
// E16's acceptance shape, via httptest instead of a real port).
func TestTheorem1N4Traced(t *testing.T) {
	var buf syncBuffer
	scope := obs.NewScope(obs.NewTracer(&buf))
	srv := httptest.NewServer(obs.Handler(scope))
	defer srv.Close()

	opts := explore.Options{
		Canon: consensus.DiskRace{},
		Obs:   scope,
	}
	engine := New(valency.New(opts))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		w, err := engine.Theorem1(ctx, consensus.DiskRace{}, 4)
		if err == nil && w.Registers < 3 {
			t.Errorf("witnessed %d registers, want >= 3", w.Registers)
		}
		done <- err
	}()

	// Poll /progress until the engine is demonstrably mid-run (it has
	// named a phase and visited configurations), then check the snapshot
	// is well-formed. The first exploration starts within milliseconds;
	// the whole run takes seconds.
	var mid obs.Snapshot
	sawMidRun := false
	for i := 0; i < 2000 && !sawMidRun; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Fatal("construction finished before /progress showed any work")
		default:
		}
		resp, err := http.Get(srv.URL + "/progress")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&mid)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/progress is not JSON: %v", err)
		}
		sawMidRun = mid.Phase != "" && mid.Configs > 0
		time.Sleep(time.Millisecond)
	}
	if !sawMidRun {
		t.Fatal("no mid-run /progress snapshot within 2 s")
	}
	if mid.ElapsedSec <= 0 || mid.ConfigsPerSec <= 0 || mid.Spans == 0 {
		t.Fatalf("mid-run snapshot not well-formed: %+v", mid)
	}
	t.Logf("mid-run /progress: %+v", mid)

	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Every Lemma 1 peel must appear as a span: starts and ends pair by
	// id, and each end reports which process was peeled.
	type rec map[string]any
	starts, ends := map[float64]rec{}, map[float64]rec{}
	var theorem1End rec
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("trace line is not JSON: %v\n%s", err, line)
		}
		switch {
		case r["msg"] == "lemma1" && r["t"] == "span_start":
			starts[r["span"].(float64)] = r
		case r["msg"] == "lemma1" && r["t"] == "span_end":
			ends[r["span"].(float64)] = r
		case r["msg"] == "theorem1" && r["t"] == "span_end":
			theorem1End = r
		}
	}
	if len(starts) == 0 {
		t.Fatal("no lemma1 spans in the trace")
	}
	if len(starts) != len(ends) {
		t.Fatalf("%d lemma1 span starts but %d ends", len(starts), len(ends))
	}
	for id, start := range starts {
		end, ok := ends[id]
		if !ok {
			t.Fatalf("lemma1 span %v never ended (started: %v)", id, start)
		}
		if _, ok := end["peeled"]; !ok {
			t.Fatalf("lemma1 span %v ended without a peeled process: %v", id, end)
		}
		if _, ok := end["dur_ms"]; !ok {
			t.Fatalf("lemma1 span %v ended without dur_ms: %v", id, end)
		}
	}
	if theorem1End == nil {
		t.Fatal("no theorem1 span_end in the trace")
	}
	if theorem1End["registers"] != float64(3) {
		t.Fatalf("theorem1 span reports %v registers, want 3", theorem1End["registers"])
	}
	t.Logf("%d lemma1 peel spans, all paired", len(starts))
}
