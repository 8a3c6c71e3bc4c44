package main

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// flushRecorder counts Flush calls behind the plain ResponseRecorder.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// TestStatusRecorderForwardsFlush pins the logging-wrapper bugfix:
// handlers behind logRequests must still see an http.Flusher when the
// underlying writer has one, and the flush must reach it.
func TestStatusRecorderForwardsFlush(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(discard{}, nil))
	var sawFlusher bool
	h := logRequests(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		sawFlusher = ok
		if ok {
			f.Flush()
		}
	}))

	under := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(under, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !sawFlusher {
		t.Fatal("handler behind logRequests did not see an http.Flusher")
	}
	if under.flushes != 1 {
		t.Errorf("underlying writer flushed %d times, want 1", under.flushes)
	}
}

// TestStatusRecorderUnwrap: http.ResponseController resolves optional
// interfaces through Unwrap; the recorder must expose the underlying
// writer there.
func TestStatusRecorderUnwrap(t *testing.T) {
	under := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	rec := &statusRecorder{ResponseWriter: under, status: http.StatusOK}
	if got := rec.Unwrap(); got != http.ResponseWriter(under) {
		t.Errorf("Unwrap = %T, want the wrapped writer", got)
	}
	if err := http.NewResponseController(rec).Flush(); err != nil {
		t.Fatalf("ResponseController.Flush through the recorder: %v", err)
	}
}

// TestStatusRecorderNoFlusher: a bare writer without Flush stays safe —
// the forwarded Flush is a no-op rather than a panic.
func TestStatusRecorderNoFlusher(t *testing.T) {
	rec := &statusRecorder{ResponseWriter: bareWriter{httptest.NewRecorder()}, status: http.StatusOK}
	rec.Flush() // must not panic
}

// bareWriter hides ResponseRecorder's optional interfaces.
type bareWriter struct{ w *httptest.ResponseRecorder }

func (b bareWriter) Header() http.Header         { return b.w.Header() }
func (b bareWriter) Write(p []byte) (int, error) { return b.w.Write(p) }
func (b bareWriter) WriteHeader(status int)      { b.w.WriteHeader(status) }

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestLogRequestsPeekMissAtDebug: a peer's 404 on the presence probe is
// the fleet protocol's normal "not here" and logs at debug; a 404
// anywhere else, and any other failure, still logs at info.
func TestLogRequestsPeekMissAtDebug(t *testing.T) {
	cases := []struct {
		path   string
		status int
		want   slog.Level
	}{
		{"/internal/v1/peek/abc", http.StatusNotFound, slog.LevelDebug},
		{"/internal/v1/peek/abc", http.StatusOK, slog.LevelDebug},
		{"/internal/v1/peek/abc", http.StatusBadRequest, slog.LevelInfo},
		{"/internal/v1/result/abc", http.StatusNotFound, slog.LevelInfo},
		{"/v1/experiments/nope", http.StatusNotFound, slog.LevelInfo},
		{"/v1/experiments/table12", http.StatusOK, slog.LevelDebug},
	}
	for _, c := range cases {
		var levels []slog.Level
		logger := slog.New(levelRecorder{&levels})
		h := logRequests(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(c.status)
		}))
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, c.path, nil))
		if len(levels) != 1 || levels[0] != c.want {
			t.Errorf("GET %s -> %d logged at %v, want [%v]", c.path, c.status, levels, c.want)
		}
	}
}

// levelRecorder is a slog handler that records each record's level.
type levelRecorder struct{ levels *[]slog.Level }

func (h levelRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (h levelRecorder) Handle(_ context.Context, r slog.Record) error {
	*h.levels = append(*h.levels, r.Level)
	return nil
}
func (h levelRecorder) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h levelRecorder) WithGroup(string) slog.Handler      { return h }
