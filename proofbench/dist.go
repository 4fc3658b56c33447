package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
)

// distSlices and distWorkers shape dist_n4_2shard: two slices over two
// workers keeps the run within a 2-core machine.
const (
	distSlices  = 2
	distWorkers = 2
)

func distWorkerIDs() []string {
	ids := make([]string, distWorkers)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d", i)
	}
	return ids
}

// pollGate holds each listed worker's first POST /dist/poll until every
// listed worker has sent one, then lets those polls reach the coordinator
// one at a time in list order. The coordinator grants one slice per poll,
// so each worker starts with exactly one slice.
type pollGate struct {
	order []string
	turns []chan struct{} // turns[i] is closed when order[i] may proceed

	mu      sync.Mutex
	arrived map[string]bool
}

func newPollGate(order []string) *pollGate {
	g := &pollGate{order: order, arrived: map[string]bool{}}
	for range order {
		g.turns = append(g.turns, make(chan struct{}))
	}
	return g
}

// arrive registers id's first poll and returns its position in the release
// order, or -1 when the poll is not held.
func (g *pollGate) arrive(id string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := slices.Index(g.order, id)
	if i < 0 || g.arrived[id] {
		return -1
	}
	g.arrived[id] = true
	if len(g.arrived) == len(g.order) {
		close(g.turns[0])
	}
	return i
}

func (g *pollGate) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := -1
		if r.Method == http.MethodPost && r.URL.Path == "/dist/poll" {
			i = g.arrive(r.URL.Query().Get("worker"))
		}
		if i < 0 {
			h.ServeHTTP(w, r)
			return
		}
		select {
		case <-g.turns[i]:
		case <-r.Context().Done():
			http.Error(w, "gate abandoned", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
		if i+1 < len(g.turns) {
			close(g.turns[i+1])
		}
	})
}

// reqRec is one coordinator request seen by the traced pass.
type reqRec struct {
	worker     string
	route      string // layer name, e.g. "poll" or "chunk_put"
	start, end time.Time
	bytes      int64
}

// routes maps coordinator requests to their dist.handler_ms names.
var routes = map[string]string{
	"POST /dist/poll":       "poll",
	"POST /dist/chunk":      "chunk_put",
	"GET /dist/chunk":       "chunk_get",
	"GET /dist/chunkset":    "chunkset",
	"POST /dist/checkpoint": "checkpoint_put",
	"POST /dist/expanded":   "expanded",
	"POST /dist/ingested":   "ingested",
}

// httpRecorder times every request through the coordinator handler. Chunk,
// checkpoint and spec GETs carry no worker id, and workers in one process
// share http.DefaultTransport's idle connections, so neither the query nor
// the connection tells whose request it is. Each worker therefore reaches
// the coordinator through a listener of its own, and a request belongs to
// the worker whose listener it arrived on.
type httpRecorder struct {
	mu   sync.Mutex
	recs []reqRec
}

// wrap times the requests h serves on worker's listener.
func (hr *httpRecorder) wrap(worker string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		rec := reqRec{worker: worker, route: routes[r.Method+" "+r.URL.Path], start: start, end: time.Now(), bytes: max(r.ContentLength, 0)}
		hr.mu.Lock()
		hr.recs = append(hr.recs, rec)
		hr.mu.Unlock()
	})
}

func (hr *httpRecorder) records() []reqRec {
	hr.mu.Lock()
	defer hr.mu.Unlock()
	return slices.Clone(hr.recs)
}

// distSums accumulates the traced pass's coordinator-side observations
// over its runs.
type distSums struct {
	runs, wall            float64 // runs and their summed wall seconds
	polls, usefulPolls    float64
	idle, busy            float64              // worker seconds
	handler               map[string][]float64 // route -> seconds inside the handler, per request
	chunkBytes, ckptBytes float64
	syncs                 []float64 // seconds per journal fsync
}

// add folds one run's requests in. A worker's consecutive requests
// delimit what it did in between: a gap between two polls is idle
// waiting, a gap before any other request is local expand or ingest work.
func (s *distSums) add(recs []reqRec) {
	byWorker := map[string][]reqRec{}
	for _, r := range recs {
		byWorker[r.worker] = append(byWorker[r.worker], r)
	}
	for _, rs := range byWorker {
		slices.SortFunc(rs, func(a, b reqRec) int { return a.start.Compare(b.start) })
		for i, r := range rs {
			if r.route != "" {
				s.handler[r.route] = append(s.handler[r.route], r.end.Sub(r.start).Seconds())
			}
			switch r.route {
			case "poll":
				s.polls++
			case "chunk_put":
				s.chunkBytes += float64(r.bytes)
			case "checkpoint_put":
				s.ckptBytes += float64(r.bytes)
			}
			if i == 0 {
				continue
			}
			prev := rs[i-1]
			gap := r.start.Sub(prev.end).Seconds()
			switch {
			case prev.route == "poll" && r.route == "poll":
				s.idle += gap
			case r.route != "poll":
				s.busy += gap
				if prev.route == "poll" {
					s.usefulPolls++
				}
			}
		}
	}
}

// report writes the dist layer metrics: counts, sizes and worker time per
// run, idle time as a share of worker-seconds, handler time per request.
func (s *distSums) report(layers map[string]float64, seqSeconds float64) {
	layers["dist.polls"] = ratio(s.polls, s.runs)
	layers["dist.poll_useful_ratio"] = ratio(s.usefulPolls, s.polls)
	layers["dist.poll_idle_frac"] = ratio(s.idle, s.wall*distWorkers)
	layers["dist.worker_busy_s"] = ratio(s.busy, s.runs)
	for _, route := range routes {
		d := s.handler[route]
		layers["dist.handler_ms."+route] = 1e3 * ratio(sum(d), float64(len(d)))
	}
	layers["dist.chunk_mb"] = ratio(s.chunkBytes, s.runs) / 1e6
	layers["dist.checkpoint_mb"] = ratio(s.ckptBytes, s.runs) / 1e6
	layers["dist.journal_syncs"] = ratio(float64(len(s.syncs)), s.runs)
	layers["dist.journal_sync_us_p99"] = 1e6 * percentile(s.syncs, 0.99)
	layers["dist.seq_s"] = seqSeconds
}

// syncTimer is the traced pass's journal opener: it times every fsync the
// coordinator journal issues.
type syncTimer struct {
	mu    sync.Mutex
	syncs []float64 // seconds per fsync
}

type timedFile struct {
	faults.File
	t *syncTimer
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	took := time.Since(start).Seconds()
	f.t.mu.Lock()
	f.t.syncs = append(f.t.syncs, took)
	f.t.mu.Unlock()
	return err
}

func (t *syncTimer) times() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.syncs)
}

func (t *syncTimer) open(path string, flag int) (faults.File, error) {
	f, err := faults.OpenOS(path, flag)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, t: t}, nil
}

// distRun is one fixture of dist_n4_2shard: a journaled coordinator behind
// one test listener per worker, ready for workers.
type distRun struct {
	run   *dist.Run
	coord *dist.Coordinator
	srvs  []*httptest.Server // srvs[i] serves worker i
	dir   string
	rec   *httpRecorder
	syncs *syncTimer
}

func (d *distRun) close() {
	for _, s := range d.srvs {
		s.Close()
	}
	os.RemoveAll(d.dir)
}

func newDistRun(b *bench, p *pass, depth int) (*distRun, error) {
	run, err := dist.NewRun(core.ProtocolDiskRace, b.sz.distN, distSlices, depth, b.sz.distLease)
	if err != nil {
		return nil, err
	}
	coord, err := run.Coordinator(p.scope)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.tmp, "journal-")
	if err != nil {
		return nil, err
	}
	d := &distRun{run: run, coord: coord, dir: dir}
	jopts := dist.JournalOptions{Scope: p.scope}
	if p.traced {
		d.syncs = &syncTimer{}
		jopts.Opener = d.syncs.open
		d.rec = &httpRecorder{}
	}
	j, err := dist.OpenJournal(dir, jopts)
	if err == nil {
		err = coord.AttachJournal(j)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	gate, handler := newPollGate(distWorkerIDs()), coord.Handler()
	for _, id := range distWorkerIDs() {
		h := handler
		if d.rec != nil {
			h = d.rec.wrap(id, h)
		}
		d.srvs = append(d.srvs, httptest.NewServer(gate.wrap(h)))
	}
	return d, nil
}

// drive runs the workers until the coordinator finishes and returns the
// wall time from their start.
func (d *distRun) drive(b *bench, p *pass) (float64, error) {
	ctx, cancel := context.WithTimeout(b.ctx, proofBudget)
	defer cancel()
	errs := make(chan error, distWorkers)
	start := time.Now()
	for i, id := range distWorkerIDs() {
		w := &dist.Worker{
			ID: id, URL: d.srvs[i].URL, Root: d.run.Root, Procs: d.run.Procs, Opts: d.run.Opts,
			Scope: p.scope, Seed: b.seed*10 + int64(i),
		}
		go func() { errs <- w.Run(ctx) }()
	}
	finished := d.coord.Done()
	var wall float64
	var firstErr error
	for pending := distWorkers; pending > 0; {
		select {
		case <-finished:
			wall = time.Since(start).Seconds()
			finished = nil
		case err := <-errs:
			pending--
			if err != nil && firstErr == nil {
				firstErr = err
				cancel()
			}
		}
	}
	if firstErr != nil {
		return 0, fmt.Errorf("worker: %w", firstErr)
	}
	if finished != nil {
		// Both workers saw the run done before this loop did.
		<-finished
		wall = time.Since(start).Seconds()
	}
	return wall, nil
}

var distWorkload = workload{
	prepare: func(b *bench) error {
		run, err := dist.NewRun(core.ProtocolDiskRace, b.sz.distN, 1, b.sz.distDepth, b.sz.distLease)
		if err != nil {
			return err
		}
		if b.seqWitness, err = dist.SequentialWitness(b.ctx, run.Spec, run.Root, run.Procs, run.Opts); err != nil {
			return fmt.Errorf("sequential reference: %w", err)
		}
		// Warm up on a two-level run.
		d, err := newDistRun(b, &pass{}, 2)
		if err != nil {
			return err
		}
		defer d.close()
		_, err = d.drive(b, &pass{})
		return err
	},
	run: func(b *bench, p *pass) error {
		build := func() (*distRun, error) { return newDistRun(b, p, b.sz.distDepth) }
		d, err := timeSetup(p, b.sz.setupBuilds, build, (*distRun).close)
		if err != nil {
			return err
		}
		var seqSeconds float64
		if p.traced {
			// The single-node baseline, traced: it also fills the explore
			// layer rows.
			run := d.run
			opts := run.Opts
			opts.Obs = p.scope
			start := time.Now()
			if _, err := dist.SequentialWitness(b.ctx, run.Spec, run.Root, run.Procs, opts); err != nil {
				d.close()
				return err
			}
			seqSeconds = time.Since(start).Seconds()
		}
		sums := distSums{handler: map[string][]float64{}}
		for {
			a := allocated()
			wall, err := d.drive(b, p)
			p.alloc += allocated() - a
			if err != nil {
				d.close()
				return err
			}
			p.op(wall, checkDist(b, d))
			if p.traced {
				sums.runs++
				sums.wall += wall
				sums.add(d.rec.records())
				sums.syncs = append(sums.syncs, d.syncs.times()...)
			}
			d.close()
			if !p.more() {
				break
			}
			if d, err = build(); err != nil {
				return err
			}
		}
		if p.traced {
			sums.report(p.layers, seqSeconds)
		}
		return nil
	},
	checks: []string{"witness_matches_sequential", "slices_keep_first_owner"},
}

// checkDist checks a finished run: its witness is byte-identical to the
// sequential reference, and every slice ended with the worker it was first
// granted to, never reassigned.
func checkDist(b *bench, d *distRun) bool {
	w, err := d.coord.Witness()
	ok := b.check("witness_matches_sequential", err == nil && bytes.Equal(w, b.seqWitness),
		"witness differs from SequentialWitness (err %v)", err)
	ids := distWorkerIDs()
	for _, h := range d.coord.ShardHealth() {
		ok = b.check("slices_keep_first_owner", h.Worker == ids[h.Slice] && h.Reassigns == 0,
			"slice %d ended with %q after %d reassigns, want %q", h.Slice, h.Worker, h.Reassigns, ids[h.Slice]) && ok
	}
	return ok
}
