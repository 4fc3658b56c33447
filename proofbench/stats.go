package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sync"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the closest ranks at position q·(n−1) — the inclusive
// method of Python's statistics.quantiles. It returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minBeyond is how many samples must lie beyond a reported tail percentile
// for it to mean anything.
const minBeyond = 10

// tailPercentile returns the highest of p99, p95, p90, p75 and p50 that has
// at least minBeyond of n samples beyond it, and false when even the median
// lacks them. Integer percent arithmetic keeps p90 of exactly 100 samples
// (10 beyond) on the right side of the rule.
func tailPercentile(n int) (pct int, ok bool) {
	for _, p := range []int{99, 95, 90, 75, 50} {
		if n*(100-p)/100 >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// syncBuffer is the traced pass's in-memory trace sink. Every provesrv job
// traces through its own obs.Tracer teed into the server's sink, and
// separate tracers do not share a lock, so the sink serialises writes
// itself.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.buf.Bytes())
}

// traceRec is the part of one obs JSONL record the layer tables read.
type traceRec struct {
	Name      string  `json:"msg"`
	Kind      string  `json:"t"`
	Span      uint64  `json:"span"`
	DurMs     float64 `json:"dur_ms"`
	Trace     string  `json:"trace"`
	Frontier  int64   `json:"frontier"`
	DedupHits int64   `json:"dedup_hits"`
	Bytes     int64   `json:"bytes"`
}

// parseTrace decodes a JSONL trace, skipping lines that are not records.
func parseTrace(data []byte) []traceRec {
	var recs []traceRec
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r traceRec
		if json.Unmarshal(sc.Bytes(), &r) == nil {
			recs = append(recs, r)
		}
	}
	return recs
}

// traceSummary folds a trace into per-span-name time and event totals.
type traceSummary struct {
	self      map[string]float64   // span name -> summed self time, seconds
	durations map[string][]float64 // span name -> each span's duration, seconds
	events    map[string]int       // event name -> count
	// Explore level events: fresh configurations and dedup hits, and the
	// bytes carried by checkpoint_write events.
	fresh, dedup, ckptBytes int64
}

// summarize computes span self times by nesting order. Spans carry no
// parent id, but the adversary and its oracle run sequentially within one
// proof, so a span_end always closes the innermost open span of its trace:
// a span's self time is its duration minus the durations of the spans
// opened and closed inside it. Records of different traces (concurrent
// provesrv jobs, each tagged with its own trace id) nest independently.
func summarize(recs []traceRec) traceSummary {
	s := traceSummary{self: map[string]float64{}, durations: map[string][]float64{}, events: map[string]int{}}
	type open struct {
		name     string
		id       uint64
		children float64
	}
	stacks := map[string][]open{}
	for _, r := range recs {
		switch r.Kind {
		case "span_start":
			stacks[r.Trace] = append(stacks[r.Trace], open{name: r.Name, id: r.Span})
		case "span_end":
			st := stacks[r.Trace]
			i := len(st) - 1
			for i >= 0 && st[i].id != r.Span {
				i--
			}
			if i < 0 {
				continue // its start predates the trace
			}
			dur := r.DurMs / 1000
			s.durations[r.Name] = append(s.durations[r.Name], dur)
			s.self[r.Name] += dur - st[i].children
			st = st[:i]
			if len(st) > 0 {
				st[len(st)-1].children += dur
			}
			stacks[r.Trace] = st
		case "event":
			s.events[r.Name]++
			switch r.Name {
			case "explore_level":
				s.fresh += r.Frontier
				s.dedup += r.DedupHits
			case "checkpoint_write":
				s.ckptBytes += r.Bytes
			}
		}
	}
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0, so an idle layer reads 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
