package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json a comparison reads: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords reads a -report file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareBaseline compares rec's end-to-end metrics with the median of the
// baseline records of the same workload, pass and window, each against its
// bound in BENCHMARK.json, and reports whether any regressed. A traced
// record times its untraced pass over half the window, so records of the
// other kind or another window are left out; records taken on a different
// CPU count are refused: their numbers are not comparable. On a regression
// it names the per-layer metric that grew most, when both sides have
// traced records.
func compareBaseline(rec *record, basePath, benchPath string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, fmt.Errorf("baseline bounds: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	all, err := readRecords(basePath)
	if err != nil {
		return false, fmt.Errorf("baseline: %w", err)
	}
	var base []record
	for _, r := range all {
		if r.Workload != rec.Workload {
			continue
		}
		if r.NumCPU != rec.NumCPU {
			return false, fmt.Errorf("baseline %s was recorded on %d CPUs, this run on %d: refusing to compare", basePath, r.NumCPU, rec.NumCPU)
		}
		if r.Trace == rec.Trace && r.Seconds == rec.Seconds {
			base = append(base, r)
		}
	}
	if len(base) == 0 {
		return false, fmt.Errorf("baseline %s has no %s records with trace=%v over %ds windows: refusing to compare", basePath, rec.Workload, rec.Trace, rec.Seconds)
	}
	baseMedian := func(name string) (float64, bool) {
		var vals []float64
		for _, r := range base {
			if v, ok := r.Metrics[name]; ok {
				vals = append(vals, v)
			}
		}
		return median(vals), len(vals) > 0
	}

	regressed := false
	for _, m := range bf.EndToEnd {
		cur, ok := rec.Metrics[m.Name]
		old, okBase := baseMedian(m.Name)
		if !ok || !okBase || old == 0 {
			continue
		}
		worse := (cur - old) / old
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if worse > m.Bound {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(w, "baseline %s %s: %.6g -> %.6g (%+.1f%% worse, bound %.0f%%) %s\n",
			rec.Workload, m.Name, old, cur, 100*worse, 100*m.Bound, verdict)
	}
	if !regressed {
		return false, nil
	}
	grew, by, old, cur := "", math.Inf(-1), 0.0, 0.0
	for _, m := range perLayer {
		c, ok := rec.Metrics[m.name]
		o, okBase := baseMedian(m.name)
		if !ok || !okBase || o == 0 {
			continue
		}
		if g := (c - o) / math.Abs(o); g > by {
			grew, by, old, cur = m.name, g, o, c
		}
	}
	if grew == "" {
		fmt.Fprintln(w, "baseline: no per-layer metrics on both sides; record and rerun with --trace 1 to name the layer")
	} else {
		fmt.Fprintf(w, "baseline: per-layer metric that grew most: %s %.6g -> %.6g (%+.1f%%)\n", grew, old, cur, 100*by)
	}
	return true, nil
}
