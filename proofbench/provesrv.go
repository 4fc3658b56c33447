package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/valency"
)

// jobProtocols are the provesrv_mixed protocols; coinflood is excluded
// because CoinFlood.Init panics at n≥3 and would kill the server.
var jobProtocols = []string{core.ProtocolDiskRace, core.ProtocolFlood, core.ProtocolEagerFlood, core.ProtocolGreedyFlood}

// jobPollEvery is the status poller's period.
const jobPollEvery = 10 * time.Millisecond

// jobDrainBudget bounds the wait for the last jobs after the window.
const jobDrainBudget = 60 * time.Second

func jobSpecs(sz sizes) []server.JobSpec {
	var specs []server.JobSpec
	for _, proto := range jobProtocols {
		for _, n := range sz.jobNs {
			specs = append(specs, server.JobSpec{Protocol: proto, N: n})
		}
	}
	return specs
}

// arrivals draws the offsets of n arrivals of a Poisson process over
// window, conditioned on there being exactly n: n uniform points, sorted.
// Fixing the count keeps the load identical across seeds while the seed
// still decides the bursts.
func arrivals(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(window)))
	}
	slices.Sort(due)
	return due
}

// specOrder returns n indexes into k specs as consecutive seeded
// permutations of 0..k-1, so every spec is submitted equally often.
func specOrder(rng *rand.Rand, n, k int) []int {
	order := make([]int, 0, n+k)
	for len(order) < n {
		order = append(order, rng.Perm(k)...)
	}
	return order[:n]
}

// clock is what the open-loop generator waits on; tests inject a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop calls send(i) at start+due[i] for each i in order, never
// earlier. A send that runs long delays the sends after it — the single
// client cannot do better — so late[i] records how far past its due time
// send(i) actually began; latencies are timed from the due time, so that
// wait is charged to the system, not hidden.
func openLoop(clk clock, start time.Time, due []time.Duration, send func(int)) (late []time.Duration) {
	late = make([]time.Duration, len(due))
	for i, d := range due {
		at := start.Add(d)
		if wait := at.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		late[i] = clk.Now().Sub(at)
		send(i)
	}
	return late
}

// jobObs is what the two clients saw of one submitted job.
type jobObs struct {
	spec        int
	due         time.Time
	sent, acked time.Time
	id          string
	refused     bool
	failed      bool
	// First time the poller saw the job running, done, and ledgered. A job
	// seen in a later state first has the earlier states stamped then.
	running, done, ledgered time.Time
	sha                     string
}

// serverFixture is one provesrv instance on an empty directory.
type serverFixture struct {
	srv *server.Server
	ts  *httptest.Server
	dir string
}

func newServerFixture(b *bench, p *pass) (*serverFixture, error) {
	dir, err := os.MkdirTemp(b.tmp, "provesrv-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{DataDir: dir, Scope: p.scope})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &serverFixture{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

// drain stops the server: admission closes, the ledger flushes.
func (f *serverFixture) drain() error {
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return f.srv.Drain(ctx)
}

func (f *serverFixture) close() {
	f.drain()
	os.RemoveAll(f.dir)
}

var provesrvWorkload = workload{
	prepare: func(b *bench) error {
		// Reference witnesses, rendered in-process with Workers 1 exactly
		// as a job renders them.
		for _, spec := range jobSpecs(b.sz) {
			m, opts, err := core.Machine(spec.Protocol)
			if err != nil {
				return err
			}
			opts.Workers = 1
			w, err := adversary.New(valency.New(opts)).Theorem1(b.ctx, m, spec.N)
			if err != nil {
				return fmt.Errorf("reference %s n=%d: %w", spec.Protocol, spec.N, err)
			}
			start := time.Now()
			err = check.VerifyWitness(m, w)
			b.refVerify += time.Since(start).Seconds()
			if !b.check("reference_verifies", err == nil, "%s n=%d: %v", spec.Protocol, spec.N, err) {
				return fmt.Errorf("reference %s n=%d does not verify", spec.Protocol, spec.N)
			}
			b.specSHA = append(b.specSHA, sha256Hex([]byte(trace.RenderWitness(w))))
		}
		// Warm up: one job through a throwaway server.
		f, err := newServerFixture(b, &pass{})
		if err != nil {
			return err
		}
		defer f.close()
		serveWindow(b, &pass{layers: map[string]float64{}}, f, []time.Duration{0}, []int{0})
		return nil
	},
	run: func(b *bench, p *pass) error {
		build := func() (*serverFixture, error) { return newServerFixture(b, p) }
		f, err := timeSetup(p, b.sz.setupBuilds, build, (*serverFixture).close)
		if err != nil {
			return err
		}
		defer os.RemoveAll(f.dir)
		window := time.Until(p.deadline)
		n := max(1, int(math.Round(b.sz.jobRate*window.Seconds())))
		rng := rand.New(rand.NewSource(b.seed))
		due := arrivals(rng, n, window)
		late := serveWindow(b, p, f, due, specOrder(rng, n, len(b.specSHA)))
		fmt.Fprintf(os.Stderr, "proofbench: open-loop generator lateness over %d sends: p50 %.3fms, max %.3fms\n",
			len(late), 1e3*percentile(late, 0.5), 1e3*percentile(late, 1))
		return nil
	},
	checks: []string{"reference_verifies", "job_witness_matches_reference", "job_ledgered", "ledger_verifies"},
}

// serveWindow submits one job per due offset from one client while a
// second client polls GET /jobs/{id} of every job not yet ledgered, as a
// client waiting on its own job would, waits for every accepted job to be
// ledgered, drains the server and verifies its ledger. It returns the
// generator's lateness per send, in seconds.
//
// Polling the whole GET /jobs list instead costs more as jobs finish: by
// the end of a 25-second window it took about a fifth of a core, five of
// the run's 33 CPU-seconds, load on the server being measured.
func serveWindow(b *bench, p *pass, f *serverFixture, due []time.Duration, specs []int) []float64 {
	all := jobSpecs(b.sz)
	seen := make([]jobObs, len(due))
	byID := map[string]int{}
	var mu sync.Mutex // guards seen and byID

	submitter := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	poller := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	defer submitter.CloseIdleConnections()
	defer poller.CloseIdleConnections()

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(jobPollEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			mu.Lock()
			var pending []string
			for id, i := range byID {
				if seen[i].ledgered.IsZero() && !seen[i].failed {
					pending = append(pending, id)
				}
			}
			mu.Unlock()
			for _, id := range pending {
				st, err := jobStatus(poller, f.ts.URL, id)
				if err != nil {
					continue // the next tick retries
				}
				now := time.Now()
				mu.Lock()
				observe(&seen[byID[id]], st, now)
				mu.Unlock()
			}
		}
	}()

	a, start := allocated(), time.Now()
	late := openLoop(realClock{}, start, due, func(i int) {
		body, _ := json.Marshal(all[specs[i]])
		sent := time.Now()
		resp, err := submitter.Post(f.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		acked := time.Now()
		o := jobObs{spec: specs[i], due: start.Add(due[i]), sent: sent, acked: acked}
		if err != nil {
			o.failed = true
		} else {
			var st server.Status
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusTooManyRequests:
				o.refused = true
			case resp.StatusCode != http.StatusAccepted || derr != nil:
				o.failed = true
			default:
				o.id = st.ID
			}
		}
		mu.Lock()
		seen[i] = o
		if o.id != "" {
			byID[o.id] = i
		}
		mu.Unlock()
	})

	settled := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, o := range seen {
			if o.id != "" && !o.failed && o.ledgered.IsZero() {
				return false
			}
		}
		return true
	}
	for wait := time.Now().Add(jobDrainBudget); !settled() && time.Now().Before(wait); {
		time.Sleep(jobPollEvery)
	}
	close(stopPoll)
	pollWG.Wait()
	p.alloc += allocated() - a
	drainErr := f.drain()

	ledgered, refused := 0, 0
	var submit, queued, attempt, commit []float64
	for _, o := range seen {
		ok := o.id != "" && !o.failed && !o.ledgered.IsZero()
		if o.id != "" {
			b.check("job_ledgered", ok, "job %s (%s n=%d) not ledgered", o.id, all[o.spec].Protocol, all[o.spec].N)
		}
		if ok {
			ledgered++
			ok = b.check("job_witness_matches_reference", o.sha == b.specSHA[o.spec],
				"job %s (%s n=%d) witness %s, reference %s", o.id, all[o.spec].Protocol, all[o.spec].N, o.sha, b.specSHA[o.spec])
		}
		if o.refused {
			refused++
		}
		p.op(o.ledgered.Sub(o.due).Seconds(), ok)
		if ok {
			submit = append(submit, o.acked.Sub(o.sent).Seconds())
			queued = append(queued, o.running.Sub(o.due).Seconds())
			attempt = append(attempt, o.done.Sub(o.running).Seconds())
			commit = append(commit, o.ledgered.Sub(o.done).Seconds())
		}
	}
	_, items, err := ledger.VerifyLedger(filepath.Join(f.dir, "ledger", "ledger.seg"))
	b.check("ledger_verifies", drainErr == nil && err == nil && items == ledgered,
		"drain %v, verify %v, %d items for %d ledgered jobs", drainErr, err, items, ledgered)

	if p.traced {
		reg := p.scope.Registry().Snapshot()
		count := func(name string) float64 {
			v, _ := reg[name].(int64)
			return float64(v)
		}
		p.layers["server.submit_ms_p99"] = 1e3 * percentile(submit, 0.99)
		p.layers["server.queue_wait_s_p50"] = median(queued)
		p.layers["server.attempt_s_p50"] = median(attempt)
		p.layers["ledger.commit_wait_s_p50"] = median(commit)
		p.layers["server.refused"] = float64(refused)
		p.layers["ledger.flush_us_p99"] = p.scope.Histogram("ledger_flush_latency_us", nil).Quantile(0.99)
		p.layers["ledger.batch_items_mean"] = ratio(count("ledger_items"), count("ledger_batches"))
		p.layers["check.verify_ms"] = 1e3 * ratio(b.refVerify, float64(len(b.specSHA)))
	}

	lateS := make([]float64, len(late))
	for i, d := range late {
		lateS[i] = d.Seconds()
	}
	return lateS
}

// observe folds one polled status into a job's first-seen stamps.
func observe(o *jobObs, st server.Status, now time.Time) {
	stamp := func(t *time.Time) {
		if t.IsZero() {
			*t = now
		}
	}
	switch st.State {
	case server.StateFailed:
		o.failed = true
	case server.StateRunning:
		stamp(&o.running)
	case server.StateDone:
		stamp(&o.running)
		stamp(&o.done)
		if st.Ledger != nil {
			stamp(&o.ledgered)
			o.sha = st.WitnessSHA256
		}
	}
}

func jobStatus(cl *http.Client, base, id string) (server.Status, error) {
	resp, err := cl.Get(base + "/jobs/" + id)
	if err != nil {
		return server.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return server.Status{}, fmt.Errorf("GET /jobs/%s: %s", id, resp.Status)
	}
	var st server.Status
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
