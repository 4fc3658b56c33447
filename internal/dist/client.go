package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/retry"
)

// Backoff tuning for the worker-side client, mirroring the job
// supervisor's retry shape in internal/server: the delay doubles from
// Base, caps at Max, and carries up to 25% seeded jitter so a fleet of
// workers retrying the same coordinator does not retry in lockstep.
// The attempt budget is sized for a coordinator outage: with the doubling
// capped at 2s, 14 attempts ride through well over ten seconds of dead
// coordinator — kill detection, restart delay, and the journal recovery
// that runs before the restarted listener opens together stay an order of
// magnitude below that — so a healthy worker never exits during the
// window, it just keeps retrying until the recovered coordinator either
// answers or fences it with 409.
const (
	clientRetryBase = 50 * time.Millisecond
	clientRetryMax  = 2 * time.Second
	clientAttempts  = 14
)

// errTerminal wraps a response that retrying cannot fix — a 4xx other
// than 409/429. The worker surfaces it instead of burning attempts.
type errTerminal struct{ err error }

func (e errTerminal) Error() string { return e.err.Error() }
func (e errTerminal) Unwrap() error { return e.err }

// ErrLeaseLost is returned when the coordinator answers 409: this worker's
// lease on the slice is gone. The caller must drop the slice and let the
// next poll hand out whatever the coordinator still trusts it with —
// retrying would be a zombie fighting the rightful owner.
var ErrLeaseLost = errors.New("dist: lease lost")

// client is the worker's HTTP client for the coordinator's /dist surface:
// every call retries transient failures (network errors, 5xx, 429) with
// capped exponential backoff and seeded jitter, honours Retry-After when
// the coordinator sends one, and never retries 409 or other 4xx.
type client struct {
	base   string
	worker string
	http   *http.Client
	rng    *rand.Rand
}

func newClient(base, worker string, seed int64) *client {
	return &client{
		base:   base,
		worker: worker,
		http:   &http.Client{Timeout: 30 * time.Second},
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// retryDelay computes the delay before retry attempt (1-based), floored
// at the Retry-After the failed attempt's response asked for (0 = none).
func (cl *client) retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	return retry.Delay(attempt, clientRetryBase, clientRetryMax, cl.rng, retryAfter)
}

// do performs one request with retries. body may be nil; the response body
// is returned along with the response header.
func (cl *client) do(ctx context.Context, method, path string, query url.Values, body []byte) ([]byte, http.Header, error) {
	u := cl.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var lastErr error
	var retryAfter time.Duration
	for attempt := 1; attempt <= clientAttempts; attempt++ {
		if attempt > 1 {
			if err := retry.Sleep(ctx, cl.retryDelay(attempt-1, retryAfter)); err != nil {
				return nil, nil, err
			}
			retryAfter = 0
		}
		req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		resp, err := cl.http.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		respBody, readErr := readBody(nil, resp.Body, resp.ContentLength)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusConflict:
			return nil, nil, fmt.Errorf("%w: %s %s: %s", ErrLeaseLost, method, path, bytes.TrimSpace(respBody))
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			// An overloaded or draining server may send Retry-After with
			// its 429 or 503; flooring the next backoff step at it keeps
			// the retry cadence at the pace the server asked for.
			lastErr = fmt.Errorf("dist: %s %s: %s", method, path, resp.Status)
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				retryAfter = time.Duration(ra) * time.Second
			}
			continue
		case resp.StatusCode >= 400:
			return nil, nil, errTerminal{fmt.Errorf("dist: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(respBody))}
		case errors.As(readErr, new(*http.MaxBytesError)):
			return nil, nil, errTerminal{fmt.Errorf("dist: %s %s: %w", method, path, readErr)}
		case readErr != nil:
			lastErr = fmt.Errorf("dist: %s %s: reading body: %w", method, path, readErr)
			continue
		}
		return respBody, resp.Header, nil
	}
	return nil, nil, fmt.Errorf("dist: %s %s: giving up after %d attempts: %w", method, path, clientAttempts, lastErr)
}

func (cl *client) workerQuery() url.Values {
	return url.Values{"worker": {cl.worker}}
}

func (cl *client) getSpec(ctx context.Context) (Spec, error) {
	body, _, err := cl.do(ctx, http.MethodGet, "/dist/spec", nil, nil)
	if err != nil {
		return Spec{}, err
	}
	var spec Spec
	if err := json.Unmarshal(body, &spec); err != nil {
		return Spec{}, fmt.Errorf("dist: decoding spec: %w", err)
	}
	return spec, nil
}

func (cl *client) poll(ctx context.Context) (pollResponse, error) {
	body, _, err := cl.do(ctx, http.MethodPost, "/dist/poll", cl.workerQuery(), nil)
	if err != nil {
		return pollResponse{}, err
	}
	var resp pollResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return pollResponse{}, fmt.Errorf("dist: decoding poll response: %w", err)
	}
	return resp, nil
}

func (cl *client) heartbeat(ctx context.Context) error {
	_, _, err := cl.do(ctx, http.MethodPost, "/dist/heartbeat", cl.workerQuery(), nil)
	return err
}

func (cl *client) putCheckpoint(ctx context.Context, slice, level int, body []byte) error {
	q := cl.workerQuery()
	q.Set("slice", strconv.Itoa(slice))
	q.Set("level", strconv.Itoa(level))
	_, _, err := cl.do(ctx, http.MethodPost, "/dist/checkpoint", q, body)
	return err
}

func (cl *client) getCheckpoint(ctx context.Context, slice int) (*SliceCheckpoint, error) {
	q := url.Values{"slice": {strconv.Itoa(slice)}}
	body, _, err := cl.do(ctx, http.MethodGet, "/dist/checkpoint", q, nil)
	if err != nil {
		return nil, err
	}
	return DecodeSliceCheckpoint(body)
}

func (cl *client) putChunk(ctx context.Context, body []byte) error {
	_, _, err := cl.do(ctx, http.MethodPost, "/dist/chunk", cl.workerQuery(), body)
	return err
}

func (cl *client) chunkSources(ctx context.Context, level, to int) ([]int, error) {
	q := url.Values{"level": {strconv.Itoa(level)}, "to": {strconv.Itoa(to)}}
	body, _, err := cl.do(ctx, http.MethodGet, "/dist/chunkset", q, nil)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Froms []int `json:"froms"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("dist: decoding chunkset: %w", err)
	}
	return resp.Froms, nil
}

// getChunk fetches and verifies one exchange chunk. A chunk that arrives
// torn or corrupted — DecodeFrontierChunk fails typed — is re-requested
// with the same capped backoff as a network failure: corruption on the
// wire is transient, the coordinator's stored copy was verified on upload.
func (cl *client) getChunk(ctx context.Context, level, from, to int, retried func()) ([]Entry, error) {
	q := url.Values{
		"level": {strconv.Itoa(level)},
		"from":  {strconv.Itoa(from)},
		"to":    {strconv.Itoa(to)},
	}
	var lastErr error
	for attempt := 1; attempt <= clientAttempts; attempt++ {
		if attempt > 1 {
			if retried != nil {
				retried()
			}
			if err := retry.Sleep(ctx, cl.retryDelay(attempt-1, 0)); err != nil {
				return nil, err
			}
		}
		body, _, err := cl.do(ctx, http.MethodGet, "/dist/chunk", q, nil)
		if err != nil {
			return nil, err
		}
		entries, err := DecodeFrontierChunk(body, level, from, to)
		if err == nil {
			return entries, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("dist: chunk level %d %d->%d still corrupt after %d fetches: %w",
		level, from, to, clientAttempts, lastErr)
}

func (cl *client) postExpanded(ctx context.Context, slice, level int, m levelMark) error {
	q := cl.workerQuery()
	q.Set("slice", strconv.Itoa(slice))
	q.Set("level", strconv.Itoa(level))
	q.Set("steps", strconv.FormatInt(m.Steps, 10))
	q.Set("fresh", strconv.FormatInt(m.Fresh, 10))
	q.Set("digest0", strconv.FormatUint(m.Digest[0], 16))
	q.Set("digest1", strconv.FormatUint(m.Digest[1], 16))
	_, _, err := cl.do(ctx, http.MethodPost, "/dist/expanded", q, nil)
	return err
}

// FetchSpec retrieves a coordinator's run description — what a shard
// worker needs before it can build the machine it will explore.
func FetchSpec(ctx context.Context, url string) (Spec, error) {
	return newClient(url, "spec-probe", 1).getSpec(ctx)
}
