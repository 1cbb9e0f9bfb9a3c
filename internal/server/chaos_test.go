package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
)

// errInjected is the generic fault for 500-mapping tests.
var errInjected = errors.New("injected handler fault")

// The chaos suite (DESIGN.md §9) proves the serving path survives its
// production failure modes: bursts over capacity, clients vanishing
// mid-batch, deadlines expiring inside a stage, and shutdown while busy —
// all with deterministic fault injection, all run under -race by `make
// check`.

// chaosModel trains one small model shared by every chaos test.
var (
	chaosOnce sync.Once
	chaosMdl  *core.Model
)

// chaosModel returns the one small model shared by the chaos and lifecycle
// suites, training it on first use.
func chaosModel(t *testing.T) *core.Model {
	t.Helper()
	chaosOnce.Do(func() {
		c := data.GenerateSportsTables(data.SportsConfig{
			NumTables: 22, Seed: 11, MinRows: 5, MaxRows: 8, WeakNameProb: 0.1, Domains: 2,
		})
		enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 128, Buckets: 1 << 12, Seed: 7})
		cfg := core.DefaultConfig(enc)
		cfg.Epochs = 3
		cfg.Patience = 3
		m, err := core.Train(c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg)
		if err != nil {
			panic(err)
		}
		chaosMdl = m
	})
	if chaosMdl == nil {
		t.Fatal("chaos model training failed")
	}
	return chaosMdl
}

// chaosServer builds a server around a fault-armed engine. engFaults fires
// inside inference stages, srvFaults at request admission.
func chaosServer(t *testing.T, engFaults, srvFaults *faultinject.Set, opts ...Option) *Server {
	t.Helper()
	eng := infer.New(chaosModel(t), infer.WithWorkers(2), infer.WithFaults(engFaults))
	opts = append(opts, WithFaults(srvFaults))
	return NewWithEngine(eng, 0, opts...)
}

func batchBody(tables int) BatchRequest {
	br := BatchRequest{}
	for i := 0; i < tables; i++ {
		br.Tables = append(br.Tables, sampleRequest(""))
	}
	return br
}

// settleGoroutines waits for the goroutine count to return to base+slack.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBurstShedsCleanly is the acceptance scenario: a burst of 4× the
// inflight cap of concurrent predict-batch requests must resolve entirely
// into 200s (admitted, possibly after queueing) and 429s (shed) — no
// timeouts, no errors, no goroutine leak — with the shed counter matching
// the 429s and Retry-After set on every rejection.
func TestBurstShedsCleanly(t *testing.T) {
	const maxInflight = 2
	const burst = 4 * maxInflight
	srvFaults := faultinject.New().
		On(faultinject.ServerHandle, faultinject.Sleep(50*time.Millisecond))
	s := chaosServer(t, nil, srvFaults, WithMaxInflight(maxInflight))
	base := runtime.NumGoroutine()

	raw, _ := json.Marshal(batchBody(2))
	start := make(chan struct{})
	codes := make([]int, burst)
	retryAfter := make([]string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req := httptest.NewRequest(http.MethodPost, "/v1/predict-batch", bytes.NewReader(raw))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			codes[i] = rec.Code
			retryAfter[i] = rec.Header().Get("Retry-After")
		}(i)
	}
	close(start)
	wg.Wait()

	ok, shed := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, code)
		}
	}
	// Capacity is maxInflight running + maxInflight queued; the burst hits
	// at once, so both outcomes must occur.
	if ok == 0 || shed == 0 {
		t.Fatalf("burst of %d: %d ok, %d shed — want both non-zero", burst, ok, shed)
	}
	if got := s.Metrics().Snapshot().Counters["http.shed"]; got != uint64(shed) {
		t.Fatalf("http.shed = %d, want %d", got, shed)
	}
	settleGoroutines(t, base)
}

// TestCancelledRequestReturnsFast: a client that vanishes mid-inference
// gets its goroutine back in under 100ms even though the stage it was in
// would have taken 10 more seconds.
func TestCancelledRequestReturnsFast(t *testing.T) {
	engFaults := faultinject.New().
		On(faultinject.InferForward, faultinject.Sleep(10*time.Second))
	s := chaosServer(t, engFaults, nil)

	ctx, cancel := context.WithCancel(context.Background())
	raw, _ := json.Marshal(batchBody(2))
	req := httptest.NewRequest(http.MethodPost, "/v1/predict-batch", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the stalled forward
	t0 := time.Now()
	cancel()
	select {
	case <-done:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("cancelled request did not return within 100ms")
	}
	if elapsed := time.Since(t0); elapsed > 100*time.Millisecond {
		t.Fatalf("cancelled request took %s after cancel", elapsed)
	}
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
}

// TestDeadlineSurfacesAs504: a request whose inference stalls past the
// configured -request-timeout comes back as a JSON 504 and counts under
// http.timeouts.
func TestDeadlineSurfacesAs504(t *testing.T) {
	engFaults := faultinject.New().
		On(faultinject.InferForward, faultinject.Sleep(10*time.Second))
	s := chaosServer(t, engFaults, nil, WithRequestTimeout(30*time.Millisecond))

	t0 := time.Now()
	rec := postJSON(t, s, "/v1/predict", sampleRequest(""))
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("timed-out request took %s", elapsed)
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("504 body not a JSON error: %s", rec.Body)
	}
	if got := s.Metrics().Snapshot().Counters["http.timeouts"]; got != 1 {
		t.Fatalf("http.timeouts = %d, want 1", got)
	}

	// Exempt paths skip the deadline middleware entirely.
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, req)
	if hrec.Code != http.StatusOK {
		t.Fatalf("healthz under request timeout: %d", hrec.Code)
	}
}

// TestInjectedHandlerErrorIs500: a fault that is neither cancellation nor a
// deadline maps to a plain 500 with a JSON body.
func TestInjectedHandlerErrorIs500(t *testing.T) {
	srvFaults := faultinject.New().
		On(faultinject.ServerHandle, faultinject.Err(errInjected))
	s := chaosServer(t, nil, srvFaults)
	rec := postJSON(t, s, "/v1/predict", sampleRequest(""))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "injected") {
		t.Fatalf("500 body: %s", rec.Body)
	}
}

// TestIndexEndpointMapsContextErrors: /v1/index shares the predict path's
// deadline mapping (504) and rejects un-identified tables outright (400).
func TestIndexEndpointMapsContextErrors(t *testing.T) {
	engFaults := faultinject.New().
		On(faultinject.InferForward, faultinject.Sleep(10*time.Second))
	s := chaosServer(t, engFaults, nil, WithRequestTimeout(30*time.Millisecond))

	rec := postJSON(t, s, "/v1/index", sampleRequest(""))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("index without id: %d", rec.Code)
	}
	rec = postJSON(t, s, "/v1/index", sampleRequest("t99"))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("stalled index: %d, want 504", rec.Code)
	}
}

// TestIndexEndpointMapsInferenceFaults: an engine failure that is neither a
// context error nor a missing model is the server's fault on /v1/index just
// as on /v1/predict — a 500 that debits the availability SLO, not a 400 the
// SLO engine would count as a good request.
func TestIndexEndpointMapsInferenceFaults(t *testing.T) {
	engFaults := faultinject.New().On(faultinject.InferForward, faultinject.Err(errInjected))
	s := chaosServer(t, engFaults, nil)

	for _, path := range []string{"/v1/predict", "/v1/index"} {
		rec := postJSON(t, s, path, sampleRequest("t1"))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s under an injected forward fault: %d, want 500 (body %s)", path, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), errInjected.Error()) {
			t.Fatalf("%s error body %s does not carry the fault", path, rec.Body)
		}
	}
	if s.Index().Stats().Tables != 0 {
		t.Fatal("a failed index request reached the discovery index")
	}
	if got := s.Metrics().Snapshot().Counters["slo.availability.events.bad"]; got != 2 {
		t.Fatalf("slo.availability.events.bad = %d, want 2 (predict + index)", got)
	}
}

// TestQueuedRequestObservesDeadline: the admission-queue wait counts
// against the request deadline — a request stuck behind a stalled server
// times out in the queue with 504 instead of waiting forever.
func TestQueuedRequestObservesDeadline(t *testing.T) {
	srvFaults := faultinject.New().
		On(faultinject.ServerHandle, faultinject.Sleep(2*time.Second))
	s := chaosServer(t, nil, srvFaults, WithMaxInflight(1), WithRequestTimeout(50*time.Millisecond))

	raw, _ := json.Marshal(sampleRequest(""))
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}(i)
		time.Sleep(10 * time.Millisecond) // request 0 admits first, 1 queues
	}
	wg.Wait()
	// Request 0 stalls 2s at the handler gate, then times out (its own
	// deadline expired while sleeping) → 504. Request 1 times out queued →
	// 504. Either way: no request may still be running or waiting.
	for i, code := range codes {
		if code != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status %d, want 504", i, code)
		}
	}
}

// TestShutdownDrainsInflight: Shutdown lets admitted requests finish (they
// come back 200), turns new work away with 503, flips healthz to draining,
// keeps /v1/metrics scrapable, and flushes a final metrics snapshot.
func TestShutdownDrainsInflight(t *testing.T) {
	var logBuf bytes.Buffer
	srvFaults := faultinject.New().
		On(faultinject.ServerHandle, faultinject.Sleep(100*time.Millisecond))
	s := chaosServer(t, nil, srvFaults,
		WithMaxInflight(4), WithLogger(log.New(&logBuf, "", 0)))

	raw, _ := json.Marshal(sampleRequest(""))
	const busy = 3
	codes := make([]int, busy)
	var wg sync.WaitGroup
	for i := 0; i < busy; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}(i)
	}
	// Wait until all three are admitted and inside the slow handler gate.
	for deadline := time.Now().Add(2 * time.Second); s.inflight.Load() < busy; {
		if time.Now().After(deadline) {
			t.Fatalf("requests not admitted: inflight = %d", s.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}

	if s.Draining() {
		t.Fatal("server draining before Shutdown")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !s.Draining() {
		t.Fatal("server not draining after Shutdown")
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("in-flight request %d finished with %d, want 200", i, code)
		}
	}

	// New work is turned away; health fails over; metrics stay scrapable.
	rec := postJSON(t, s, "/v1/predict", sampleRequest(""))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("post-shutdown request: status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, req)
	if hrec.Code != http.StatusServiceUnavailable || !strings.Contains(hrec.Body.String(), "draining") {
		t.Fatalf("healthz while draining: %d %s", hrec.Code, hrec.Body)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, req)
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics while draining: %d", mrec.Code)
	}
	if !strings.Contains(logBuf.String(), "final metrics") {
		t.Fatal("Shutdown did not flush a final metrics snapshot")
	}
	if s.Metrics().Snapshot().Gauges["http.draining"] != 1 {
		t.Fatal("http.draining gauge not set")
	}
}

// TestShutdownTimesOutWhileBusy: a drain that cannot finish inside its
// budget returns the context error instead of hanging.
func TestShutdownTimesOutWhileBusy(t *testing.T) {
	srvFaults := faultinject.New().
		On(faultinject.ServerHandle, faultinject.Sleep(500*time.Millisecond))
	s := chaosServer(t, nil, srvFaults)

	raw, _ := json.Marshal(sampleRequest(""))
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw))
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	for deadline := time.Now().Add(2 * time.Second); s.inflight.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("request not admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown must report an incomplete drain")
	}
	<-done // let the stalled request finish so it can't leak into other tests
}

// TestExemptPathsBypassAdmission: with the server saturated, health checks
// and metrics scrapes still answer immediately — overload must not blind
// the operator.
func TestExemptPathsBypassAdmission(t *testing.T) {
	srvFaults := faultinject.New().
		On(faultinject.ServerHandle, faultinject.Sleep(300*time.Millisecond))
	s := chaosServer(t, nil, srvFaults, WithMaxInflight(1))

	raw, _ := json.Marshal(sampleRequest(""))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one admitted, one queued: capacity full
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw))
			s.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	for deadline := time.Now().Add(2 * time.Second); s.inflight.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("request not admitted")
		}
		time.Sleep(time.Millisecond)
	}
	for _, path := range []string{"/v1/healthz", "/v1/readyz", "/v1/metrics", "/v1/slo"} {
		t0 := time.Now()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s under load: %d", path, rec.Code)
		}
		if time.Since(t0) > 100*time.Millisecond {
			t.Fatalf("%s queued behind traffic", path)
		}
	}
	wg.Wait()
}

// TestRecoverOnPlainWriter: the panic recoverer must also work when the
// response writer is not the chain's respWriter (e.g. a handler invoked
// outside the full middleware stack).
func TestRecoverOnPlainWriter(t *testing.T) {
	s := chaosServer(t, nil, nil)
	h := s.withRecover(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("body: %s", rec.Body)
	}
}

// TestDecodeRejectsTrailingGarbage is the regression test for the
// decodeJSONBody fix: a valid JSON object followed by trailing bytes must
// be a 400, not a silently truncated accept.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	s := chaosServer(t, nil, nil)
	valid, _ := json.Marshal(sampleRequest(""))
	for _, tc := range []struct {
		body string
		want int
	}{
		{string(valid), http.StatusOK},
		{string(valid) + "garbage", http.StatusBadRequest},
		{string(valid) + string(valid), http.StatusBadRequest},
		{string(valid) + " \n\t ", http.StatusOK}, // trailing whitespace is fine
		{string(valid) + "null", http.StatusBadRequest},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Fatalf("body %q: status = %d, want %d", tc.body, rec.Code, tc.want)
		}
	}
}
