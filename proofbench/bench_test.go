package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.75, 4}, {0.9, 4.6}, {1, 5},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true}, // p75 would leave 9 beyond
		{40, 75, true},
		{99, 75, true},
		{100, 90, true}, // exactly 10 beyond p90
		{200, 95, true},
		{1000, 99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%d %v, want p%d %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// spanLines renders a synthetic trace: "+name/id@trace" opens a span,
// "-name/id@trace=ms" closes it, "!name@trace" is an event.
func spanLines(t *testing.T, script ...string) []byte {
	t.Helper()
	var out []byte
	for _, s := range script {
		rec := map[string]any{}
		body := s[1:]
		if at := strings.LastIndex(body, "@"); at >= 0 {
			tail := body[at+1:]
			body = body[:at]
			if eq := strings.Index(tail, "="); eq >= 0 {
				rec["dur_ms"] = json.Number(tail[eq+1:])
				tail = tail[:eq]
			}
			if tail != "" {
				rec["trace"] = tail
			}
		}
		name, id, _ := strings.Cut(body, "/")
		rec["msg"] = name
		if id != "" {
			rec["span"] = json.Number(id)
		}
		switch s[0] {
		case '+':
			rec["t"] = "span_start"
		case '-':
			rec["t"] = "span_end"
		case '!':
			rec["t"] = "event"
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

func TestSummarizeSelfTimeByNesting(t *testing.T) {
	// Two concurrent jobs, a and b, whose records interleave; span ids
	// repeat across them because each job has its own tracer.
	trace := spanLines(t,
		"+theorem1/1@a",
		"+lemma4/2@a",
		"+theorem1/1@b",
		"+valency_decidable/3@a",
		"!lemma4_round@a",
		"-valency_decidable/3@a=30",
		"+valency_solo/4@a",
		"-valency_solo/4@a=10",
		"-lemma4/2@a=50",
		"+lemma1/2@b",
		"-lemma1/2@b=70",
		"+lemma3/5@a",
		"+valency_decidable/6@a",
		"-valency_decidable/6@a=200",
		"-lemma3/5@a=260",
		"-theorem1/1@a=400",
		"-theorem1/1@b=100",
		"-orphan/9@a=5", // its start is not in the trace
	)
	s := summarize(parseTrace(trace))
	want := map[string]float64{
		"theorem1":          (400 - 50 - 260 + 100 - 70) / 1000.0,
		"lemma4":            (50 - 30 - 10) / 1000.0,
		"lemma1":            0.070,
		"lemma3":            (260 - 200) / 1000.0,
		"valency_decidable": 0.230,
		"valency_solo":      0.010,
	}
	for name, w := range want {
		if got := s.self[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, got, w)
		}
	}
	if got := s.durations["valency_decidable"]; len(got) != 2 || math.Abs(got[0]-0.030) > 1e-9 || math.Abs(got[1]-0.200) > 1e-9 {
		t.Errorf("durations[valency_decidable] = %v, want [0.03 0.2]", got)
	}
	if _, ok := s.self["orphan"]; ok {
		t.Error("a span whose start is missing was counted")
	}
	if s.events["lemma4_round"] != 1 {
		t.Errorf("lemma4_round events = %d, want 1", s.events["lemma4_round"])
	}
}

func TestPollGateReleasesInIDOrder(t *testing.T) {
	ids := []string{"w0", "w1", "w2"}
	var mu sync.Mutex
	var order []string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		order = append(order, r.URL.Query().Get("worker"))
		mu.Unlock()
	})
	srv := httptest.NewServer(newPollGate(ids).wrap(inner))
	defer srv.Close()
	poll := func(id string) error {
		resp, err := http.Post(srv.URL+"/dist/poll?worker="+id, "", nil)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}

	// Workers arrive in reverse order; none may pass before the last.
	var wg sync.WaitGroup
	for i := len(ids) - 1; i >= 0; i-- {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := poll(id); err != nil {
				t.Error(err)
			}
		}(ids[i])
		time.Sleep(20 * time.Millisecond)
		if i > 0 {
			mu.Lock()
			passed := len(order)
			mu.Unlock()
			if passed != 0 {
				t.Fatalf("a poll passed the gate before every worker arrived")
			}
		}
	}
	wg.Wait()
	if !slices.Equal(order, ids) {
		t.Fatalf("released in order %v, want %v", order, ids)
	}
	// Later polls, and workers the gate does not know, pass straight on.
	if err := poll("w1"); err != nil {
		t.Fatal(err)
	}
	if err := poll("stranger"); err != nil {
		t.Fatal(err)
	}
	if want := append(slices.Clone(ids), "w1", "stranger"); !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestRecorderAttributesBySharedTransportWorkers(t *testing.T) {
	// Two workers share one client and so one pool of keep-alive
	// connections, as dist.Worker goroutines share http.DefaultTransport.
	// Chunk GETs carry no worker id; each must still go to its sender.
	rec := &httpRecorder{}
	inner := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	urls := map[string]string{}
	for _, id := range []string{"w0", "w1"} {
		srv := httptest.NewServer(rec.wrap(id, inner))
		defer srv.Close()
		urls[id] = srv.URL
	}
	shared := &http.Client{Transport: &http.Transport{}}
	defer shared.CloseIdleConnections()
	script := []struct{ worker, method, path string }{
		{"w1", http.MethodGet, "/dist/chunk"}, // before w1 has named itself
		{"w0", http.MethodPost, "/dist/poll?worker=w0"},
		{"w1", http.MethodGet, "/dist/chunk"},
		{"w0", http.MethodGet, "/dist/chunk"},
		{"w1", http.MethodPost, "/dist/poll?worker=w1"},
		{"w0", http.MethodGet, "/dist/chunkset"},
		{"w1", http.MethodGet, "/dist/chunk"},
	}
	for _, s := range script {
		req, err := http.NewRequest(s.method, urls[s.worker]+s.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := shared.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	got := rec.records()
	if len(got) != len(script) {
		t.Fatalf("recorded %d requests, sent %d", len(got), len(script))
	}
	for i, r := range got {
		if r.worker != script[i].worker {
			t.Errorf("request %d (%s %s) attributed to %q, sent by %q", i, script[i].method, script[i].path, r.worker, script[i].worker)
		}
	}
}

// fakeClock advances only when slept on or told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesLatenessToLaterSends(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 100 * ms}
	var sentAt []time.Duration
	late := openLoop(clk, start, due, func(i int) {
		sentAt = append(sentAt, clk.now.Sub(start))
		clk.now = clk.now.Add(25 * ms) // every submit takes 25ms
	})
	if want := []time.Duration{0, 15 * ms, 30 * ms, 0}; !slices.Equal(late, want) {
		t.Errorf("lateness %v, want %v", late, want)
	}
	if want := []time.Duration{0, 25 * ms, 50 * ms, 100 * ms}; !slices.Equal(sentAt, want) {
		t.Errorf("sent at %v, want %v: a send may be late but never early", sentAt, want)
	}
}

func TestArrivalsAndSpecOrderAreSeeded(t *testing.T) {
	window := 20 * time.Second
	a := arrivals(rand.New(rand.NewSource(7)), 100, window)
	b := arrivals(rand.New(rand.NewSource(7)), 100, window)
	if !slices.Equal(a, b) || len(a) != 100 || !slices.IsSorted(a) || a[0] < 0 || a[99] >= window {
		t.Fatalf("arrivals not a sorted, seeded draw inside the window: %v", a)
	}
	order := specOrder(rand.New(rand.NewSource(7)), 20, 8)
	counts := make([]int, 8)
	for _, i := range order {
		counts[i]++
	}
	for i, c := range counts {
		if c < 2 || c > 3 {
			t.Errorf("spec %d submitted %d times in 20, want 2 or 3", i, c)
		}
	}
}

func TestBaselineRefusesOtherCPUCountsAndNamesTheLayer(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"latency_p50_s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "base.jsonl")
	for _, old := range []*record{
		{Workload: "w", NumCPU: 2, Trace: true, Seconds: 12, Metrics: map[string]float64{"latency_p50_s": 1, "dist.polls": 100, "model.pack_ns": 1000}},
		// Untraced records, of the same window and of another, both far
		// slower: a traced run must not be compared with them.
		{Workload: "w", NumCPU: 2, Trace: false, Seconds: 12, Metrics: map[string]float64{"latency_p50_s": 9}},
		{Workload: "w", NumCPU: 2, Trace: false, Seconds: 25, Metrics: map[string]float64{"latency_p50_s": 9}},
	} {
		if err := appendRecord(base, old); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	cur := &record{Workload: "w", NumCPU: 2, Trace: true, Seconds: 12, Metrics: map[string]float64{"latency_p50_s": 1.05, "dist.polls": 100, "model.pack_ns": 1100}}
	if regressed, err := compareBaseline(cur, base, bench, &out); err != nil || regressed {
		t.Fatalf("5%% within a 10%% bound: regressed=%v err=%v", regressed, err)
	}
	cur.Metrics["latency_p50_s"] = 1.2
	out.Reset()
	regressed, err := compareBaseline(cur, base, bench, &out)
	if err != nil || !regressed || !strings.Contains(out.String(), "grew most: model.pack_ns") {
		t.Fatalf("20%% past a 10%% bound: regressed=%v err=%v output:\n%s", regressed, err, out.String())
	}
	cur.Seconds = 30
	if _, err := compareBaseline(cur, base, bench, &out); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("compared against records of another window: %v", err)
	}
	cur.Seconds = 12
	cur.NumCPU = 4
	if _, err := compareBaseline(cur, base, bench, &out); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("compared across CPU counts: %v", err)
	}
}

// TestSmokeEveryWorkload runs every workload at toy size through both
// passes and checks that each emits every metric BENCHMARK.json names and
// performs each of its correctness checks.
func TestSmokeEveryWorkload(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		units[m.name] = m.unit
	}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if units[m.Name] != m.Unit {
			t.Errorf("BENCHMARK.json metric %s has unit %q, the benchmark reports %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if len(bf.EndToEnd)+len(bf.PerLayer) != len(units) {
		t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(bf.EndToEnd)+len(bf.PerLayer), len(units))
	}

	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rec, err := runWorkload(context.Background(), w.Name, 1, 4*time.Second, true, toySizes, "")
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 2 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			for name := range units {
				if _, ok := rec.Metrics[name]; !ok {
					t.Errorf("metric %s not emitted", name)
				}
			}
			for _, c := range workloads[w.Name].checks {
				if rec.Checks[c] == 0 {
					t.Errorf("correctness check %s never ran", c)
				}
			}
		})
	}
}
