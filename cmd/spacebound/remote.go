package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/ledger"
	"repro/internal/retry"
	"repro/internal/server"
)

// runRemote is the -server mode: submit the spec to a provesrv instance,
// wait for the job to settle, print the served witness, and verify the
// ledger's Merkle inclusion proof client-side so trust in the result does
// not depend on trusting the server's word.
func runRemote(ctx context.Context, base string, spec server.JobSpec, witnessOut string) error {
	st, err := submitRemote(ctx, base, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spacebound: job %s accepted by %s\n", st.ID, base)

	// Poll until the job settles AND its witness is ledgered (the proof
	// endpoint needs the batch flushed).
	for st.State != server.StateDone || st.Ledger == nil {
		if st.State == server.StateFailed {
			return fmt.Errorf("server job %s failed (%s): %s", st.ID, st.Reason, st.LastError)
		}
		if err := retry.Sleep(ctx, 250*time.Millisecond); err != nil {
			return fmt.Errorf("%w: job %s still %s after %d attempt(s)", errInterrupted, st.ID, st.State, st.Attempts)
		}
		if err := getJSON(ctx, base+"/jobs/"+st.ID, &st); err != nil {
			return err
		}
	}

	body, err := getBody(ctx, base+"/jobs/"+st.ID+"/witness")
	if err != nil {
		return err
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != st.WitnessSHA256 {
		return fmt.Errorf("%w: served witness does not hash to the status's sha256", errVerifyFailed)
	}
	var proof ledger.Proof
	if err := getJSON(ctx, base+"/jobs/"+st.ID+"/proof", &proof); err != nil {
		return err
	}
	if err := proof.Verify(); err != nil {
		return fmt.Errorf("%w: inclusion proof: %v", errVerifyFailed, err)
	}
	if proof.Witness != sum {
		return fmt.Errorf("%w: inclusion proof commits to different witness bytes", errVerifyFailed)
	}

	os.Stdout.Write(body)
	fmt.Fprintf(os.Stderr,
		"spacebound: witness verified against ledger batch %d (root %s), inclusion proof checked locally\n",
		proof.BatchSeq, proof.Root)
	if witnessOut != "" {
		if err := checkpoint.WriteArtifact(witnessOut, body); err != nil {
			return fmt.Errorf("witness artifact: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spacebound: witness written to %s (+.sha256)\n", witnessOut)
	}
	return nil
}

// submitRemote posts the spec, honouring 429 Retry-After backpressure.
func submitRemote(ctx context.Context, base string, spec server.JobSpec) (server.Status, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return server.Status{}, err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(payload))
		if err != nil {
			return server.Status{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return server.Status{}, err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st server.Status
			if err := json.Unmarshal(data, &st); err != nil {
				return server.Status{}, fmt.Errorf("submit response: %w", err)
			}
			return st, nil
		case http.StatusTooManyRequests:
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			fmt.Fprintf(os.Stderr, "spacebound: server saturated, retrying in %s\n", wait)
			if err := retry.Sleep(ctx, wait); err != nil {
				return server.Status{}, fmt.Errorf("%w: while backing off a saturated server", errInterrupted)
			}
		default:
			return server.Status{}, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
	}
}

// getJSON fetches and decodes one JSON resource.
func getJSON(ctx context.Context, url string, v any) error {
	data, err := getBody(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// Retry tuning for GETs against the server: a status poll must survive a
// flaky network or a briefly overloaded server instead of aborting the
// whole wait, so transient failures — connection errors, 5xx, 429 — are
// retried with capped exponential backoff and seeded jitter (the same
// shape the server's own job supervisor uses). Retry-After, when the
// server sends one, floors the wait. Anything 4xx is terminal: resending
// the same request cannot fix it.
const (
	getRetryBase     = 250 * time.Millisecond
	getRetryMax      = 4 * time.Second
	getRetryAttempts = 6
)

// getJitter is the seeded jitter source for GET retries.
var getJitter = rand.New(rand.NewSource(int64(os.Getpid())*1e9 + time.Now().UnixNano()%1e9))

// getBody fetches one resource, retrying transient failures.
func getBody(ctx context.Context, url string) ([]byte, error) {
	var lastErr error
	for attempt := 1; attempt <= getRetryAttempts; attempt++ {
		if attempt > 1 {
			var ra retryAfterError
			_ = errors.As(lastErr, &ra) // ra.wait stays 0 without a Retry-After
			if err := retry.Sleep(ctx, retry.Delay(attempt-1, getRetryBase, getRetryMax, getJitter, ra.wait)); err != nil {
				return nil, fmt.Errorf("%w: retrying %s: %v", errInterrupted, url, lastErr)
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		data, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			lastErr = fmt.Errorf("GET %s: %s", url, resp.Status)
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					lastErr = retryAfterError{err: lastErr, wait: time.Duration(secs) * time.Second}
				}
			}
			continue
		case resp.StatusCode != http.StatusOK:
			return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
		case readErr != nil:
			lastErr = fmt.Errorf("GET %s: reading body: %w", url, readErr)
			continue
		}
		return data, nil
	}
	return nil, fmt.Errorf("GET %s: giving up after %d attempts: %w", url, getRetryAttempts, lastErr)
}

// retryAfterError carries a server-provided Retry-After floor through the
// retry loop.
type retryAfterError struct {
	err  error
	wait time.Duration
}

func (e retryAfterError) Error() string { return e.err.Error() }
func (e retryAfterError) Unwrap() error { return e.err }
