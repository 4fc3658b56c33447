package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// maxChunkBody bounds a single uploaded chunk or checkpoint, and every
// response body a worker reads. A slice checkpoint reaches it at about 4M
// visited fingerprints; the limit exists so a confused peer cannot balloon
// the reader's memory.
const maxChunkBody = 64 << 20

// readBody reads a request or response body of at most maxChunkBody bytes
// into a buffer presized from its declared length. A longer body fails
// with an error naming the limit and wrapping *http.MaxBytesError, which
// distError answers with 413. w is the server's ResponseWriter, or nil on
// the client side.
func readBody(w http.ResponseWriter, body io.ReadCloser, contentLength int64) ([]byte, error) {
	var buf bytes.Buffer
	// MinRead of headroom lets the final read see EOF without growing.
	buf.Grow(int(min(max(contentLength, 0), maxChunkBody)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, body, maxChunkBody)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("dist: body exceeds the %d MiB limit: %w", maxChunkBody>>20, err)
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// Handler serves the coordinator's HTTP surface under /dist/. The patterns
// are registered with the /dist/ prefix built in, so the same handler
// works standalone (spacebound -coordinator) and mounted into provesrv's
// mux (provesrv -coordinator).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist/spec", c.handleSpec)
	mux.HandleFunc("POST /dist/poll", c.handlePoll)
	mux.HandleFunc("POST /dist/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /dist/checkpoint", c.handlePutCheckpoint)
	mux.HandleFunc("GET /dist/checkpoint", c.handleGetCheckpoint)
	mux.HandleFunc("POST /dist/chunk", c.handlePutChunk)
	mux.HandleFunc("GET /dist/chunkset", c.handleChunkSet)
	mux.HandleFunc("GET /dist/chunk", c.handleGetChunk)
	mux.HandleFunc("POST /dist/expanded", c.handleExpanded)
	mux.HandleFunc("GET /dist/witness", c.handleWitness)
	mux.HandleFunc("GET /dist/status", c.handleStatus)
	mux.HandleFunc("GET /dist/healthz", c.handleHealthz)
	mux.HandleFunc("GET /dist/readyz", c.handleReadyz)
	return mux
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	distWriteJSON(w, http.StatusOK, c.Status())
}

// handleHealthz answers 200 whenever the process serves at all — liveness.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is readiness. Recovery finishes inside AttachJournal,
// before the listener opens, so a coordinator that serves is ready.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
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
// exit), an oversized body is 413, corruption is 400 (the payload is bad
// however often it is resent), everything else is also 400 — the
// coordinator's in-memory handling has no transient 5xx failures.
func distError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var notOwner errNotOwner
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &notOwner):
		status = http.StatusConflict
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
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
	body, err := readBody(w, r.Body, r.ContentLength)
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
	body, err := readBody(w, r.Body, r.ContentLength)
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
	if steps < 0 || fresh < 0 {
		distError(w, fmt.Errorf("dist: mark with negative counts: steps %d, fresh %d", steps, fresh))
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
