package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// maxChunkBody bounds a single uploaded chunk or checkpoint. Frontier
// levels on the protocols this repo explores are far below this; the limit
// exists so a confused client cannot balloon coordinator memory.
const maxChunkBody = 64 << 20

// Handler serves the coordinator's HTTP surface under /dist/. The patterns
// are registered with the /dist/ prefix built in, so the same handler
// works standalone (spacebound -coordinator) and mounted into provesrv's
// mux (provesrv -coordinator).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist/spec", c.handleSpec)
	mux.HandleFunc("POST /dist/poll", c.gated(c.handlePoll))
	mux.HandleFunc("POST /dist/heartbeat", c.gated(c.handleHeartbeat))
	mux.HandleFunc("POST /dist/checkpoint", c.gated(c.handlePutCheckpoint))
	mux.HandleFunc("GET /dist/checkpoint", c.gated(c.handleGetCheckpoint))
	mux.HandleFunc("POST /dist/chunk", c.handlePutChunk)
	mux.HandleFunc("GET /dist/chunkset", c.gated(c.handleChunkSet))
	mux.HandleFunc("GET /dist/chunk", c.gated(c.handleGetChunk))
	mux.HandleFunc("POST /dist/expanded", c.gated(c.handleExpanded))
	mux.HandleFunc("GET /dist/witness", c.gated(c.handleWitness))
	mux.HandleFunc("GET /dist/status", c.handleStatus)
	mux.HandleFunc("GET /dist/healthz", c.handleHealthz)
	mux.HandleFunc("GET /dist/readyz", c.handleReadyz)
	return mux
}

// gated wraps a worker-facing handler with the recovery gate: while the
// startup sweep rebuilds state, answers are 503 + Retry-After so clients
// back off and retry instead of acting on half-recovered state. Chunk
// POSTs are deliberately NOT gated — their bytes are self-validating and
// the recovery window stashes them idempotently (first write wins against
// the journal's copy) rather than making the poster re-upload.
func (c *Coordinator) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.Recovering() {
			w.Header().Set("Retry-After", "1")
			distWriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "dist: coordinator recovering"})
			return
		}
		h(w, r)
	}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	distWriteJSON(w, http.StatusOK, c.Status())
}

// handleHealthz answers 200 whenever the process serves at all — liveness,
// for supervisors deciding between "recovering" and "dead".
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: 503 while the recovery sweep runs (mirroring
// provesrv's drain discipline), 200 once the worker surface is open.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.Recovering() {
		w.Header().Set("Retry-After", "1")
		distWriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "dist: coordinator recovering"})
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

func distWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// distError maps coordinator errors onto status codes: lost leases are
// 409 (the worker must drop the slice, not retry verbatim — and never
// exit), corruption is 400 (the payload is bad however often it is
// resent), everything else is also 400 — the coordinator's in-memory
// handling has no transient 5xx failures.
func distError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var notOwner errNotOwner
	if errors.As(err, &notOwner) {
		status = http.StatusConflict
	}
	distWriteJSON(w, status, map[string]string{"error": err.Error()})
}

// intParam parses a required integer query parameter.
func intParam(r *http.Request, name string) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, fmt.Errorf("dist: missing %q parameter", name)
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("dist: bad %q parameter: %w", name, err)
	}
	return v, nil
}

// workerParam extracts the mandatory worker id.
func workerParam(r *http.Request) (string, error) {
	w := r.URL.Query().Get("worker")
	if w == "" {
		return "", fmt.Errorf("dist: missing %q parameter", "worker")
	}
	return w, nil
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	distWriteJSON(w, http.StatusOK, c.spec)
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	worker, err := workerParam(r)
	if err != nil {
		distError(w, err)
		return
	}
	distWriteJSON(w, http.StatusOK, c.poll(r.Context(), worker))
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	worker, err := workerParam(r)
	if err != nil {
		distError(w, err)
		return
	}
	c.heartbeat(worker)
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handlePutCheckpoint(w http.ResponseWriter, r *http.Request) {
	worker, err := workerParam(r)
	if err != nil {
		distError(w, err)
		return
	}
	slice, err := intParam(r, "slice")
	if err != nil {
		distError(w, err)
		return
	}
	level, err := intParam(r, "level")
	if err != nil {
		distError(w, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxChunkBody))
	if err != nil {
		distError(w, fmt.Errorf("dist: reading checkpoint body: %w", err))
		return
	}
	if err := c.putCheckpoint(worker, slice, level, body); err != nil {
		distError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleGetCheckpoint(w http.ResponseWriter, r *http.Request) {
	slice, err := intParam(r, "slice")
	if err != nil {
		distError(w, err)
		return
	}
	body, level, err := c.getCheckpoint(slice)
	if err != nil {
		distWriteJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Ckpt-Level", strconv.Itoa(level))
	_, _ = w.Write(body)
}

func (c *Coordinator) handlePutChunk(w http.ResponseWriter, r *http.Request) {
	worker, err := workerParam(r)
	if err != nil {
		distError(w, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxChunkBody))
	if err != nil {
		distError(w, fmt.Errorf("dist: reading chunk body: %w", err))
		return
	}
	if err := c.putChunk(worker, body); err != nil {
		distError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleChunkSet(w http.ResponseWriter, r *http.Request) {
	level, err := intParam(r, "level")
	if err != nil {
		distError(w, err)
		return
	}
	to, err := intParam(r, "to")
	if err != nil {
		distError(w, err)
		return
	}
	froms := c.chunkSources(level, to)
	if froms == nil {
		froms = []int{}
	}
	distWriteJSON(w, http.StatusOK, map[string][]int{"froms": froms})
}

func (c *Coordinator) handleGetChunk(w http.ResponseWriter, r *http.Request) {
	level, err := intParam(r, "level")
	if err != nil {
		distError(w, err)
		return
	}
	from, err := intParam(r, "from")
	if err != nil {
		distError(w, err)
		return
	}
	to, err := intParam(r, "to")
	if err != nil {
		distError(w, err)
		return
	}
	body, err := c.getChunk(level, from, to)
	if err != nil {
		distWriteJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(body)
}

func (c *Coordinator) handleExpanded(w http.ResponseWriter, r *http.Request) {
	worker, err := workerParam(r)
	if err != nil {
		distError(w, err)
		return
	}
	slice, err := intParam(r, "slice")
	if err != nil {
		distError(w, err)
		return
	}
	level, err := intParam(r, "level")
	if err != nil {
		distError(w, err)
		return
	}
	steps, err := intParam(r, "steps")
	if err != nil {
		distError(w, err)
		return
	}
	fresh, err := intParam(r, "fresh")
	if err != nil {
		distError(w, err)
		return
	}
	m := levelMark{Steps: int64(steps), Fresh: int64(fresh)}
	for i, name := range []string{"digest0", "digest1"} {
		s := r.URL.Query().Get(name)
		if s == "" {
			distError(w, fmt.Errorf("dist: missing %q parameter", name))
			return
		}
		v, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			distError(w, fmt.Errorf("dist: bad %q parameter: %w", name, err))
			return
		}
		m.Digest[i] = v
	}
	if err := c.expanded(worker, slice, level, m); err != nil {
		distError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleWitness(w http.ResponseWriter, r *http.Request) {
	body, err := c.Witness()
	if err != nil {
		distWriteJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(body)
}
