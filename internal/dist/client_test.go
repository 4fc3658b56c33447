package dist

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRetryDelayFloorsAtRetryAfter: a Retry-After floors the backoff step
// instead of adding to it, so a 503 + Retry-After: 1 from a recovering
// coordinator costs one second of waiting, not one second plus a backoff.
func TestRetryDelayFloorsAtRetryAfter(t *testing.T) {
	cl := newClient("http://unused", "w", 1)
	within := func(name string, got, lo, hi time.Duration) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s: delay %v outside [%v, %v]", name, got, lo, hi)
		}
	}
	for i := 0; i < 100; i++ {
		within("first retry", cl.retryDelay(1, 0), clientRetryBase, clientRetryBase*5/4)
		within("third retry", cl.retryDelay(3, 0), 4*clientRetryBase, 5*clientRetryBase)
		within("capped retry", cl.retryDelay(clientAttempts, 0), clientRetryMax, clientRetryMax*5/4)
		if got := cl.retryDelay(1, time.Second); got != time.Second {
			t.Fatalf("Retry-After 1s above the backoff: delay %v, want exactly 1s", got)
		}
		within("Retry-After below the backoff", cl.retryDelay(clientAttempts, time.Second), clientRetryMax, clientRetryMax*5/4)
	}
}

// TestOversizedUploadNamesLimit: a body one byte over maxChunkBody is
// refused with 413 and an error naming the limit — not cut short at the
// limit and then reported as a corrupt payload — on both upload routes,
// and the worker's client surfaces that error without retrying.
func TestOversizedUploadNamesLimit(t *testing.T) {
	tr := newTestRun(t, 3, 1, 2, 1000)
	body := make([]byte, maxChunkBody+1)
	for _, target := range []string{
		"/dist/chunk?worker=w0",
		"/dist/checkpoint?worker=w0&slice=0&level=0",
	} {
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		if req.ContentLength <= maxChunkBody {
			t.Fatalf("%s: request declares %d bytes, want more than %d", target, req.ContentLength, maxChunkBody)
		}
		rec := httptest.NewRecorder()
		tr.coord.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413; body %s", target, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "64 MiB limit") {
			t.Fatalf("%s: answer does not name the limit: %s", target, rec.Body)
		}
	}

	cl := newClient(tr.srv.URL, "w0", 1)
	err := cl.putChunk(context.Background(), body)
	var terminal errTerminal
	if !errors.As(err, &terminal) {
		t.Fatalf("oversized chunk upload: %v, want a terminal error", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "413") || !strings.Contains(msg, "64 MiB limit") {
		t.Fatalf("worker error does not name the 413 limit: %v", err)
	}
}
