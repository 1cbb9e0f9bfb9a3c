package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/faultinject"
)

// logEntry is the part of a JSON log line the logging tests read.
type logEntry struct {
	Level     string `json:"level"`
	Msg       string `json:"msg"`
	Event     string `json:"event"`
	RequestID string `json:"request_id"`
}

// jsonLines parses every line of buf as one JSON log entry.
func jsonLines(t *testing.T, buf *bytes.Buffer) []logEntry {
	t.Helper()
	var out []logEntry
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var e logEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("log line not JSON: %v (%q)", err, line)
		}
		out = append(out, e)
	}
	return out
}

// TestServerEventsLogOnce drives every kind of server event through one
// logger — flight-dir error, candidate load with an unusable drift
// sidecar, a swap fault at promote, engine drains, a lake re-score, a
// panic, the access lines and the shutdown — and checks each lands exactly
// as often as it happened.
func TestServerEventsLogOnce(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := savedCheckpoint(t, t.TempDir(), "v2.bin", false)
	if err := os.WriteFile(core.DriftSidecarPath(path), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	faults := faultinject.New().
		On(faultinject.ServerSwap, faultinject.Err(fmt.Errorf("injected swap fault")))
	s := chaosServer(t, nil, faults,
		WithLogger(slog.New(slog.NewJSONHandler(&buf, nil))), WithFlightDir(notDir, 4))
	s.route("GET /test/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })

	post := func(path string, body any, want int) {
		t.Helper()
		if rec := postJSON(t, s, path, body); rec.Code != want {
			t.Fatalf("POST %s = %d, want %d: %s", path, rec.Code, want, rec.Body)
		}
	}
	post("/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)
	post("/v1/models/promote", nil, http.StatusOK)
	post("/v1/index", sampleRequest("t1"), http.StatusOK)
	post("/v1/index/rescore", nil, http.StatusAccepted)
	waitRescore(t, s, "done")
	getPath(t, s, "/test/panic")
	drain(t, s)

	got := map[string]int{}
	for _, e := range jsonLines(t, &buf) {
		key := e.Msg
		if e.Event != "" {
			key += " " + e.Event
		}
		got[key]++
	}
	snap := s.Metrics().Snapshot()
	drained := int(snap.Counters["models.engines.drained"])
	requests := 0
	for name, n := range snap.Counters {
		if strings.HasPrefix(name, "http.") && strings.HasSuffix(name, ".requests") {
			requests += int(n)
		}
	}
	want := map[string]int{
		"flight recorder disabled": 1,
		"candidate drift sidecar unusable, shadowing without drift telemetry": 1,
		"model swap load":            1,
		"swap fault injected":        1,
		"model swap promote":         1,
		"model engine drained":       drained,
		"lake rescore rescore-start": 1,
		"lake rescore rescore-done":  1,
		"panic":                      1,
		"request":                    requests,
		"shutdown drained":           1,
	}
	if drained != 2 {
		t.Fatalf("models.engines.drained = %d, want 2 (shadow engine and old primary)", drained)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%q logged %d times, want %d", k, got[k], n)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected log event %q ×%d", k, got[k])
		}
	}
}

// TestConcurrentAccessLinesDoNotInterleave: concurrent requests share one
// logger, and every access line comes out whole — one parseable JSON
// object per request, each with its own request ID.
func TestConcurrentAccessLinesDoNotInterleave(t *testing.T) {
	var buf bytes.Buffer
	s := trainedServer(t, WithLogger(slog.New(slog.NewJSONHandler(&buf, nil))))
	const workers, each = 8, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				getPath(t, s, "/v1/healthz")
			}
		}()
	}
	wg.Wait()

	ids := map[string]bool{}
	for _, e := range jsonLines(t, &buf) {
		if e.Msg != "request" || e.RequestID == "" {
			t.Fatalf("unexpected line %+v", e)
		}
		ids[e.RequestID] = true
	}
	if len(ids) != workers*each {
		t.Fatalf("%d distinct access lines, want %d", len(ids), workers*each)
	}
}

// TestAccessLogRespectsHandlerLevel: the handler's level gates server
// events — at WARN the access lines drop out while a panic still logs.
func TestAccessLogRespectsHandlerLevel(t *testing.T) {
	var buf bytes.Buffer
	h := slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn})
	s := trainedServer(t, WithLogger(slog.New(h)))
	s.route("GET /test/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })

	getPath(t, s, "/v1/healthz")
	if buf.Len() != 0 {
		t.Fatalf("access line logged below the handler level: %s", buf.String())
	}
	getPath(t, s, "/test/panic")
	lines := jsonLines(t, &buf)
	if len(lines) != 1 || lines[0].Level != "ERROR" || lines[0].Msg != "panic" {
		t.Fatalf("want one ERROR panic line, got %+v", lines)
	}
}

// pinnedJSONLogger writes JSON lines with the clock and the per-request
// values pinned, so a whole line can be compared byte for byte.
func pinnedJSONLogger(buf *bytes.Buffer) *slog.Logger {
	pin := map[string]slog.Value{
		slog.TimeKey: slog.TimeValue(time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)),
		"dur_ms":     slog.Float64Value(1.5),
		"request_id": slog.StringValue("req-7"),
		"trace_id":   slog.StringValue("00000000000000ab"),
	}
	return slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if v, ok := pin[a.Key]; ok && len(groups) == 0 {
				a.Value = v
			}
			return a
		},
	}))
}

// TestJSONAccessLineShape pins a whole access line as the JSON handler
// renders it: the time/level/msg header first, then the access keys in
// their fixed order, one object per line.
func TestJSONAccessLineShape(t *testing.T) {
	var buf bytes.Buffer
	s := trainedServer(t, WithLogger(pinnedJSONLogger(&buf)))
	rec := getPath(t, s, "/v1/healthz")

	want := fmt.Sprintf(`{"time":"2026-08-06T12:00:00Z","level":"INFO","msg":"request",`+
		`"method":"GET","path":"/v1/healthz","status":200,"bytes":%d,"dur_ms":1.5,`+
		`"request_id":"req-7","trace_id":"00000000000000ab"}`+"\n", rec.Body.Len())
	if got := buf.String(); got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("line is not valid JSON: %v", err)
	}
}

// TestLoggerBindsComponentBeforeAccessKeys: keys bound on the logger
// handed to WithLogger (the CLI binds component=server) land on every
// server line ahead of the event's own keys, the correlation keys
// request_id and trace_id included, and the parent logger stays unbound.
func TestLoggerBindsComponentBeforeAccessKeys(t *testing.T) {
	var buf bytes.Buffer
	base := slog.New(slog.NewJSONHandler(&buf, nil))
	s := trainedServer(t,
		WithLogger(base.With("component", "server")), WithTraceRecorder(alwaysRecorder()))
	rec := postJSON(t, s, "/v1/predict", sampleRequest(""))
	if rec.Code != http.StatusOK {
		t.Fatalf("predict = %d", rec.Code)
	}

	line := buf.String()
	var obj map[string]any
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["component"] != "server" {
		t.Fatalf("bound field missing: %v", obj)
	}
	if obj["request_id"] != rec.Header().Get("X-Request-ID") || obj["trace_id"] == "" || obj["trace_id"] == nil {
		t.Fatalf("correlation keys missing: %v", obj)
	}
	if !(strings.Index(line, `"component"`) < strings.Index(line, `"method"`)) {
		t.Fatalf("bound field does not precede the event's keys: %s", line)
	}

	buf.Reset()
	base.Info("bare")
	if strings.Contains(buf.String(), "component") {
		t.Fatalf("With mutated its parent: %s", buf.String())
	}
}

// TestNilLoggerLeavesServerInert: WithLogger(nil) is the same as no
// logger — disabled at every level, still disabled after With — and every
// event path (access, panic, shutdown) runs without one.
func TestNilLoggerLeavesServerInert(t *testing.T) {
	s := trainedServer(t, WithLogger(nil))
	s.route("GET /test/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	ctx := context.Background()
	for _, lvl := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if s.log.Enabled(ctx, lvl) {
			t.Fatalf("nil logger enabled at %v", lvl)
		}
	}
	if s.log.With("k", "v").Enabled(ctx, slog.LevelError) {
		t.Fatal("With on the inert logger should stay disabled")
	}
	if rec := getPath(t, s, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := getPath(t, s, "/test/panic"); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic route = %d, want 500", rec.Code)
	}
	drain(t, s)
}
