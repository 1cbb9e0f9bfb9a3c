// Package server exposes a trained Pythagoras model and a discovery index
// over HTTP — the integration surface for data-catalog and lake-management
// tools. All prediction traffic flows through the staged inference engine's
// one pipeline (internal/infer): single requests run it on one table, and
// the batch endpoint amortizes one union forward pass over many tables.
// The three inference routes share one decode → lease → infer → release →
// error-mapping path (serveInfer). Endpoints:
//
//	POST /v1/predict   {name, columns:[{header, values:[...]}]}
//	                   → per-column semantic types with confidences
//	POST /v1/predict-batch
//	                   {tables:[{name, columns:[...]}, ...]}
//	                   → one result per table, computed in a single
//	                   batched forward pass
//	POST /v1/index     same body as /v1/predict; additionally adds the
//	                   table to the discovery index (requires id)
//	GET  /v1/search?type=a&type=b
//	                   → tables containing all queried types
//	GET  /v1/join?type=a[&limit=n]
//	                   → join candidates: table pairs sharing a typed column
//	GET  /v1/union?table=id[&k=n]
//	                   → union candidates ranked by semantic-type overlap
//	GET  /v1/types     → indexed semantic types
//	GET  /v1/healthz   → liveness + model/vocabulary info
//	GET  /v1/readyz    → readiness: model loaded and not draining (load
//	                   balancers gate traffic on this; loadgen waits for it
//	                   before opening a measured window)
//	GET  /v1/metrics   → JSON snapshot of the metrics registry: per-stage
//	                   inference latency histograms, per-route request/
//	                   error/latency series, encoder cache gauges, spans
//	GET  /v1/slo       → SLO status: objectives, windowed good/bad counts,
//	                   remaining error budget and multi-window burn rates
//	                   (DESIGN.md §13)
//	POST /v1/index/rescore
//	                   start a background lake re-score: every retained
//	                   table is re-typed on the current primary model and
//	                   the discovery index flips atomically on completion
//	                   (rescore.go, DESIGN.md §15)
//	GET  /v1/index/rescore
//	                   → re-score progress: cursor position, totals, state
//	POST /v1/models    load a candidate checkpoint for shadow scoring;
//	GET  /v1/models    with POST /v1/models/promote and /rollback these
//	                   drive the zero-downtime model lifecycle state
//	                   machine (lifecycle.go, DESIGN.md §14)
//	GET  /debug/pprof/* (and /debug/vars) when built WithDebug
//
// Request bodies are size-capped (http.MaxBytesReader); oversized payloads
// get 413 and malformed ones 400, both as JSON errors. Every request flows
// through the middleware chain: request-ID (honored or minted, echoed as
// X-Request-ID) → access log → panic recovery (JSON 500) → per-request
// deadline (WithRequestTimeout; expiry surfaces as 504) → bounded admission
// with load shedding (WithMaxInflight; overflow is shed with 429 +
// Retry-After) → per-route metrics. Plain-text error pages (including the
// mux's own 404/405) are rewritten into the same JSON error shape the
// handlers use.
//
// The request context is threaded end-to-end: prediction handlers call the
// engine's PredictCtx/PredictBatchCtx, so a client disconnect or deadline
// expiry aborts inference at the next stage boundary (DESIGN.md §9).
// Shutdown(ctx) turns the server away from traffic (new requests get 503,
// /v1/healthz reports draining), waits for in-flight requests to drain, and
// flushes a final metrics snapshot through the logger.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/discovery"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/obs/logz"
	"github.com/sematype/pythagoras/internal/obs/slo"
	"github.com/sematype/pythagoras/internal/obs/watch"
	"github.com/sematype/pythagoras/internal/par"
	"github.com/sematype/pythagoras/internal/rescore"
	"github.com/sematype/pythagoras/internal/table"
)

// Default SLO objectives for a server built without WithSLO: three nines of
// availability, and the same target for requests under 250ms — deliberately
// modest so an untuned deployment gets meaningful burn-rate signals instead
// of a permanently-blown budget.
const (
	DefaultSLOTarget  = 0.999
	DefaultSLOLatency = 250 * time.Millisecond
)

// Body-size caps for POST endpoints. The batch cap is larger because one
// request legitimately carries many tables.
const (
	maxBodyBytes      = 16 << 20
	maxBatchBodyBytes = 64 << 20
)

// statusClientClosedRequest is the nginx-convention status for a request
// whose client went away before the response was ready. The connection is
// usually gone by the time it is written; it exists for the access log and
// per-route error counters.
const statusClientClosedRequest = 499

// defaultShadowSeed seeds the deterministic shadow sampler when
// WithShadowSeed is not given. Any fixed value works — determinism, not
// unpredictability, is the point.
const defaultShadowSeed uint64 = 0x5DEECE66D

// Server wires the inference engine and index into an http.Handler.
type Server struct {
	// primary is the serving slot: every prediction request leases its
	// engine (leasePrimary). candidate, when non-nil, is a loaded model
	// shadowing live traffic; previous parks the demoted primary as the
	// rollback target. Slot writes serialize under lcMu; reads are plain
	// atomic loads on the hot path.
	primary   atomic.Pointer[modelSlot]
	candidate atomic.Pointer[modelSlot]
	previous  atomic.Pointer[modelSlot]
	lcMu      sync.Mutex

	// shadowWG tracks in-flight shadow-scoring goroutines so Shutdown (and
	// the leak-checking tests) can prove none outlive the server.
	shadowWG     sync.WaitGroup
	shadowSample float64
	shadowSeed   uint64
	shadowSeq    atomic.Uint64
	modelsDir    string
	primaryID    string

	// engineWorkers/engineMaxBatch clone the boot engine's configuration
	// onto every lifecycle-created engine.
	engineWorkers  int
	engineMaxBatch int
	drained        *obs.Counter // models.engines.drained — retired engines fully released

	// index is the discovery index behind snapshot-isolated swapping:
	// queries pin index.Current(), mutations dual-write through the holder,
	// and a completed lake re-score flips the pointer atomically
	// (DESIGN.md §15). lake retains every indexed table so a re-score can
	// re-type the corpus. rescore tracks the at-most-one background
	// re-score run (rescore.go).
	index   *discovery.SwapIndex
	lake    *rescore.Lake
	rescore rescoreState

	// rescoreCkpt/rescoreBatch configure re-score runs: the durable cursor
	// path ("" = in-memory only) and the engine batch size. rescoreBudget is
	// the shared dynamic concurrency gate every run scores under — the
	// watchdog's rescore-throttle action halves it while the SLO fast burn
	// fires and restores it on clear.
	rescoreCkpt   string
	rescoreBatch  int
	rescoreBudget *rescore.Budget

	// Anomaly watchdog (watch.go, DESIGN.md §16): rules over the signal
	// surfaces above, the flight recorder behind GET /v1/flight, and the
	// once-per-candidate auto-rollback latch (autoRolledBack, under lcMu).
	watchdog       *watch.Watchdog
	flights        *watch.FlightDir
	watchInterval  time.Duration
	watchNow       func() time.Time
	flightDir      string
	flightMax      int
	agreeMin       float64
	agreeWindow    time.Duration
	autoRolledBack *modelSlot

	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the middleware chain
	metrics *obs.Registry
	logger  *log.Logger  // legacy key=value access-log + panic sink; nil silences both
	slog    *logz.Logger // structured JSON log (WithLogz); additive to logger
	debug   bool         // mounts /debug/pprof/* and /debug/vars

	// recorder samples per-request span trees into a ring buffer served at
	// GET /v1/traces. A default recorder (1% sampling, errored and >1s
	// traces always kept) is created unless WithTraceRecorder supplies one.
	recorder *obs.TraceRecorder

	// sloEng classifies every completed non-exempt request into good/bad SLO
	// events (the access-log middleware feeds it) and answers GET /v1/slo.
	// A default engine (DefaultSLOTarget/DefaultSLOLatency) is created
	// unless WithSLO supplies one.
	sloEng *slo.Engine

	// requestTimeout bounds end-to-end request processing, queue wait
	// included (0 = unbounded). Expiry surfaces as a JSON 504.
	requestTimeout time.Duration
	// maxInflight caps concurrently processed requests; the same number
	// again may wait in the admission queue, everything beyond is shed with
	// 429. 0 disables admission control.
	maxInflight int
	maxQueue    int
	sem         chan struct{} // counting semaphore, cap maxInflight
	queued      atomic.Int64  // requests waiting in the admission queue
	inflight    atomic.Int64  // admitted requests currently being served
	draining    atomic.Bool   // set by Shutdown: turn new work away
	shed        *obs.Counter  // http.shed — requests rejected with 429
	timeouts    *obs.Counter  // http.timeouts — requests expired with 504
	faults      *faultinject.Set

	idPrefix uint32 // per-process request-ID prefix
	reqSeq   atomic.Uint64
}

// Option configures a Server.
type Option func(*Server)

// WithMetrics supplies the metrics registry. Without it the server adopts
// the engine's registry, or creates its own — a server always serves
// /v1/metrics.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
}

// WithLogger enables the legacy key=value access log and panic reporting.
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithLogz enables structured JSON logging: one object per request with the
// request ID and trace ID as first-class fields (joinable against
// /v1/traces), plus panic and lifecycle events. Additive to WithLogger —
// both sinks receive events when both are configured.
func WithLogz(l *logz.Logger) Option {
	return func(s *Server) { s.slog = l }
}

// WithTraceRecorder supplies the trace recorder behind GET /v1/traces
// (sampling rate, slow threshold and ring size are the recorder's). Without
// this option the server builds a default recorder: 1% sampling, with
// errored traces and traces over one second always kept.
func WithTraceRecorder(rec *obs.TraceRecorder) Option {
	return func(s *Server) { s.recorder = rec }
}

// WithDebug mounts the pprof handlers under /debug/pprof/ and expvar under
// /debug/vars. Off by default: profiling endpoints expose internals and
// cost CPU, so production turns them on deliberately (`serve -debug`).
func WithDebug(debug bool) Option {
	return func(s *Server) { s.debug = debug }
}

// WithRequestTimeout bounds each request's end-to-end processing time,
// admission-queue wait included. An expired deadline aborts inference at
// the next stage boundary and returns a JSON 504. 0 (the default) disables
// the per-request deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.requestTimeout = d }
}

// WithMaxInflight caps how many requests are processed concurrently. Up to
// the same number again wait in a bounded admission queue (the wait counts
// against the request deadline); anything beyond that is shed immediately
// with 429 and a Retry-After header. /v1/healthz, /v1/metrics and /debug
// bypass admission so the instance stays observable under overload.
// 0 (the default) disables admission control.
func WithMaxInflight(n int) Option {
	return func(s *Server) { s.maxInflight = n }
}

// WithSLO supplies the SLO engine behind GET /v1/slo (objectives, budget
// windows, and — for tests — the clock are the engine's). Without this
// option the server builds a default engine from DefaultSLOTarget and
// DefaultSLOLatency; `serve -slo-target -slo-latency-ms` configures it.
func WithSLO(e *slo.Engine) Option {
	return func(s *Server) { s.sloEng = e }
}

// WithFaults arms fault-injection points on the serving path — test support
// for the chaos suite, never set in production (nil disables, the default).
func WithFaults(fs *faultinject.Set) Option {
	return func(s *Server) { s.faults = fs }
}

// WithShadowSample sets the fraction of live predict / predict-batch
// traffic double-scored on a shadowing candidate (lifecycle.go), in [0, 1].
// Sampling is deterministic from the shadow seed — the same request
// sequence samples identically on every run. Default 1: every request is
// shadow-scored while a candidate is loaded (`serve -shadow-sample` tunes
// it down for deployments where double-scoring everything is too dear).
func WithShadowSample(f float64) Option {
	return func(s *Server) { s.shadowSample = f }
}

// WithShadowSeed overrides the deterministic shadow sampler's seed —
// test support for exercising different sampled subsets.
func WithShadowSeed(seed uint64) Option {
	return func(s *Server) { s.shadowSeed = seed }
}

// WithModelsDir confines POST /v1/models checkpoint paths to one directory:
// requests must name a relative path inside it. Without this option (the
// default) any path the process can read is accepted.
func WithModelsDir(dir string) Option {
	return func(s *Server) { s.modelsDir = dir }
}

// WithModelID names the boot-time model in lifecycle telemetry and
// GET /v1/models. Default "boot".
func WithModelID(id string) Option {
	return func(s *Server) { s.primaryID = id }
}

// WithRescoreCheckpoint sets the durable cursor path for lake re-score runs
// (POST /v1/index/rescore): progress checkpoints land there after every
// committed batch, and a restarted process resumes from it. Empty (the
// default) keeps the cursor in memory only — a crash restarts the scan.
func WithRescoreCheckpoint(path string) Option {
	return func(s *Server) { s.rescoreCkpt = path }
}

// WithRescoreBatch sets how many tables a re-score scores per engine batch
// (values < 1 keep the default 16).
func WithRescoreBatch(n int) Option {
	return func(s *Server) {
		if n >= 1 {
			s.rescoreBatch = n
		}
	}
}

// New builds a server around a trained model. minConfidence filters what
// enters the discovery index.
func New(m *core.Model, minConfidence float64, opts ...Option) *Server {
	return NewWithEngine(infer.New(m), minConfidence, opts...)
}

// NewWithEngine builds a server around a pre-configured inference engine
// (custom worker counts, batch bounds). The server and engine share one
// metrics registry: the server's (WithMetrics) if the engine has none yet,
// otherwise the engine's.
func NewWithEngine(eng *infer.Engine, minConfidence float64, opts ...Option) *Server {
	s := &Server{
		index:        discovery.NewSwapIndex(minConfidence),
		lake:         rescore.NewLake(),
		rescoreBatch: 16,
		mux:          http.NewServeMux(),
		idPrefix:     newIDPrefix(),
		shadowSample: 1,
		shadowSeed:   defaultShadowSeed,
		primaryID:    "boot",
		agreeMin:     DefaultShadowAgreementMin,
		agreeWindow:  DefaultShadowAgreementWindow,
	}
	for _, o := range opts {
		o(s)
	}
	if s.metrics == nil {
		s.metrics = eng.Metrics()
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	eng.EnableMetrics(s.metrics) // no-op if the engine brought its own

	if s.maxInflight > 0 {
		s.sem = make(chan struct{}, s.maxInflight)
		if s.maxQueue <= 0 {
			s.maxQueue = s.maxInflight
		}
	}
	if s.recorder == nil {
		s.recorder = obs.NewTraceRecorder(obs.TraceConfig{
			SampleRate:    0.01,
			SlowThreshold: time.Second,
		})
	}
	if s.sloEng == nil {
		s.sloEng = slo.New(slo.DefaultObjectives(DefaultSLOTarget, DefaultSLOLatency))
	}
	s.sloEng.Register(s.metrics)
	s.recorder.Register(s.metrics)
	obs.RegisterRuntimeMetrics(s.metrics)
	par.RegisterMetrics(s.metrics)
	if d := eng.Drift(); d != nil {
		d.Register(s.metrics)
	}

	// The boot engine becomes the initial primary slot of the model
	// lifecycle state machine (lifecycle.go); its configuration is the
	// template for every engine a later load/promote/rollback builds.
	s.engineWorkers = eng.Workers()
	s.engineMaxBatch = eng.MaxBatch()
	s.drained = s.metrics.Counter("models.engines.drained")
	boot := &modelSlot{
		id:       s.primaryID,
		model:    eng.Model(),
		engine:   eng,
		drift:    eng.Drift(),
		loadedAt: time.Now(),
		mx:       s.newSlotMetrics(s.primaryID),
	}
	boot.drift.RegisterLabeled(s.metrics, "model", boot.id) // nil-safe
	s.primary.Store(boot)

	s.shed = s.metrics.Counter("http.shed")
	s.timeouts = s.metrics.Counter("http.timeouts")
	s.metrics.GaugeFunc("http.inflight", func() float64 { return float64(s.inflight.Load()) })
	s.metrics.GaugeFunc("http.queue.depth", func() float64 { return float64(s.queued.Load()) })
	s.metrics.GaugeFunc("http.draining", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})

	s.route("POST /v1/predict", s.handlePredict)
	s.route("POST /v1/predict-batch", s.handlePredictBatch)
	s.route("POST /v1/index", s.handleIndex)
	s.route("GET /v1/search", s.handleSearch)
	s.route("GET /v1/join", s.handleJoin)
	s.route("GET /v1/union", s.handleUnion)
	s.route("GET /v1/types", s.handleTypes)
	s.route("GET /v1/healthz", s.handleHealthz)
	s.route("GET /v1/readyz", s.handleReadyz)
	s.route("GET /v1/metrics", s.handleMetrics)
	s.route("GET /v1/traces", s.handleTraces)
	s.route("GET /v1/slo", s.handleSLO)
	s.route("POST /v1/index/rescore", s.handleRescoreStart)
	s.route("GET /v1/index/rescore", s.handleRescoreStatus)
	s.route("POST /v1/models", s.handleModelsLoad)
	s.route("GET /v1/models", s.handleModelsStatus)
	s.route("POST /v1/models/promote", s.handleModelsPromote)
	s.route("POST /v1/models/rollback", s.handleModelsRollback)
	s.route("GET /v1/alerts", s.handleAlerts)
	s.route("GET /v1/flight", s.handleFlightList)
	s.route("GET /v1/flight/{id}", s.handleFlightGet)
	if s.debug {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		s.mux.Handle("GET /debug/vars", expvar.Handler())
		s.metrics.PublishExpvar("pythagoras")
	}

	// The re-score budget exists before any run so the watchdog's throttle
	// action has a stable target to halve and restore.
	s.rescoreBudget = rescore.NewBudget(2)
	s.initWatchdog()

	s.handler = s.withRequestID(s.withAccessLog(s.withRecover(s.withDeadline(s.withAdmission(s.mux)))))
	return s
}

// Shutdown gracefully stops the server's request processing: it stops
// accepting work (new requests are rejected with 503 and /v1/healthz flips
// to draining — load balancers pull the instance), waits for admitted
// in-flight requests to drain, and flushes a final metrics snapshot through
// the logger. It returns ctx's error if the drain does not finish in time,
// with requests still running; callers pair it with http.Server.Shutdown,
// which closes the listeners. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// The watchdog stops first: a tick landing mid-teardown would act on
	// subsystems being dismantled. Stop waits the loop out (no-op when the
	// loop was never started).
	s.watchdog.Stop()
	// A background lake re-score must not outlive the server: cancel it
	// (the durable cursor survives for the next process to resume) and,
	// after the request drain below, wait for its goroutine to unwind.
	s.cancelRescore("shutdown")
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: shutdown aborted with %d requests in flight: %w",
				s.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
	// Requests are drained; shadow-scoring goroutines they spawned may still
	// be running against the candidate. Wait those out too — a shadow score
	// observed after Shutdown returns would race test teardown and registry
	// reads.
	shadowDone := make(chan struct{})
	go func() {
		s.shadowWG.Wait()
		close(shadowDone)
	}()
	select {
	case <-shadowDone:
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown aborted with shadow scoring in flight: %w", ctx.Err())
	}
	if err := s.awaitRescore(ctx); err != nil {
		return fmt.Errorf("server: shutdown aborted with a lake re-score in flight: %w", err)
	}
	if s.logger != nil {
		if raw, err := json.Marshal(s.metrics.Snapshot()); err == nil {
			s.logger.Printf("shutdown: drained, final metrics %s", raw)
		}
	}
	s.slog.Log(logz.Info, "shutdown drained",
		"traces_captured", s.recorder.Captured())
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// model returns the current primary slot's model.
func (s *Server) model() *core.Model {
	if slot := s.primary.Load(); slot != nil {
		return slot.model
	}
	return nil
}

// modelTypes returns the primary model's vocabulary size, 0 with no model.
func (s *Server) modelTypes() int {
	if m := s.model(); m != nil {
		return len(m.Types())
	}
	return 0
}

// primaryEngine returns the current primary slot's engine — introspection
// for tests and callers that held the boot engine before lifecycle moves.
func (s *Server) primaryEngine() *infer.Engine {
	if slot := s.primary.Load(); slot != nil {
		return slot.engine
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Index exposes the currently served discovery index snapshot. A completed
// lake re-score replaces it wholesale — callers issuing several related
// queries should pin one Index() result and run them all against it.
func (s *Server) Index() *discovery.TypeIndex { return s.index.Current() }

// Lake exposes the retained-table store a re-score walks.
func (s *Server) Lake() *rescore.Lake { return s.lake }

// Metrics exposes the server's metrics registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Recorder exposes the server's trace recorder.
func (s *Server) Recorder() *obs.TraceRecorder { return s.recorder }

// SLO exposes the server's SLO engine.
func (s *Server) SLO() *slo.Engine { return s.sloEng }

// --- wire types ---

// ColumnRequest is one column of a prediction request. Values are sent as
// strings; numeric columns are detected the same way the CSV loader does.
type ColumnRequest struct {
	Header string   `json:"header"`
	Values []string `json:"values"`
}

// TableRequest is the body of /v1/predict and /v1/index.
type TableRequest struct {
	ID      string          `json:"id,omitempty"`
	Name    string          `json:"name"`
	Columns []ColumnRequest `json:"columns"`
}

// ColumnResponse is one predicted column.
type ColumnResponse struct {
	Header     string  `json:"header"`
	Kind       string  `json:"kind"`
	Type       string  `json:"type"`
	Confidence float64 `json:"confidence"`
}

// PredictResponse is the body returned by /v1/predict and /v1/index.
type PredictResponse struct {
	Table   string           `json:"table"`
	Columns []ColumnResponse `json:"columns"`
	Indexed bool             `json:"indexed,omitempty"`
}

// BatchRequest is the body of /v1/predict-batch.
type BatchRequest struct {
	Tables []TableRequest `json:"tables"`
}

// BatchResponse is the body returned by /v1/predict-batch; Results[i]
// corresponds to Tables[i] of the request.
type BatchResponse struct {
	Results []PredictResponse `json:"results"`
}

// errorResponse is the one JSON error shape every path emits. TraceID, when
// the request carries a trace (route-opened root span, or an admission
// rejection's reject span), joins the error body to GET /v1/traces — a
// client holding a 429/504 body can hand support the exact trace.
type errorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	resp := errorResponse{Error: fmt.Sprintf(format, args...)}
	// The whole middleware chain below the access log sees the respWriter;
	// whatever span owner set its trace ID rides along on every error body.
	if rw, ok := w.(*respWriter); ok {
		resp.TraceID = rw.traceID
	}
	writeJSON(w, status, resp)
}

// toTable converts a request into the internal table model, inferring
// column kinds from the values.
func (tr *TableRequest) toTable() (*table.Table, error) {
	if len(tr.Columns) == 0 {
		return nil, fmt.Errorf("table needs at least one column")
	}
	t := &table.Table{Name: tr.Name, ID: tr.ID}
	if t.Name == "" {
		t.Name = "untitled"
	}
	if t.ID == "" {
		t.ID = "adhoc"
	}
	rows := len(tr.Columns[0].Values)
	for i, c := range tr.Columns {
		if len(c.Values) != rows {
			return nil, fmt.Errorf("column %d has %d values, want %d", i, len(c.Values), rows)
		}
		col := &table.Column{Header: c.Header}
		numeric := len(c.Values) > 0
		nums := make([]float64, 0, len(c.Values))
		for _, v := range c.Values {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				numeric = false
				break
			}
			nums = append(nums, f)
		}
		if numeric {
			col.Kind = table.KindNumeric
			col.NumValues = nums
		} else {
			col.Kind = table.KindText
			col.TextValues = c.Values
		}
		t.Columns = append(t.Columns, col)
	}
	return t, nil
}

// toResponse converts engine predictions for t into the wire format.
func toResponse(t *table.Table, preds []core.ColumnPrediction) *PredictResponse {
	resp := &PredictResponse{Table: t.ID}
	for _, p := range preds {
		resp.Columns = append(resp.Columns, ColumnResponse{
			Header: p.Header, Kind: p.Kind.String(), Type: p.Type, Confidence: p.Confidence,
		})
	}
	return resp
}

// writeInferErr maps an aborted inference call onto the wire: an expired
// deadline is the server's fault (504, counted under http.timeouts), a
// vanished client gets the conventional 499 (the connection is usually
// already gone — the status feeds the access log and error counters), and
// anything else (injected faults included) is a 500.
func (s *Server) writeInferErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		writeErr(w, http.StatusGatewayTimeout, "request timed out after %s", s.requestTimeout)
	case errors.Is(err, context.Canceled):
		writeErr(w, statusClientClosedRequest, "client closed request")
	default:
		writeErr(w, http.StatusInternalServerError, "inference failed: %v", err)
	}
}

// decodeJSONBody decodes a size-capped JSON body into v, writing the JSON
// error response itself on failure: 413 when the body exceeds limit, 400
// for malformed, unknown-field, or trailing-garbage payloads. The body must
// be exactly one JSON value — `{...}garbage` is rejected, not silently
// truncated (the second Decode must hit io.EOF).
func decodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeErr(w, http.StatusBadRequest, "invalid request body: trailing data after JSON value")
		return false
	}
	return true
}

// decodeTable returns the decoder of a /v1/predict or (requireID)
// /v1/index body: it decodes the body into its table, writing the 400 (or
// 413) itself on failure.
func decodeTable(requireID bool) func(http.ResponseWriter, *http.Request) ([]*table.Table, bool) {
	return func(w http.ResponseWriter, r *http.Request) ([]*table.Table, bool) {
		var tr TableRequest
		if !decodeJSONBody(w, r, maxBodyBytes, &tr) {
			return nil, false
		}
		if requireID && tr.ID == "" {
			writeErr(w, http.StatusBadRequest, "indexing requires a table id")
			return nil, false
		}
		t, err := tr.toTable()
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return nil, false
		}
		return []*table.Table{t}, true
	}
}

// decodeBatch decodes a /v1/predict-batch body into its tables.
func decodeBatch(w http.ResponseWriter, r *http.Request) ([]*table.Table, bool) {
	var br BatchRequest
	if !decodeJSONBody(w, r, maxBatchBodyBytes, &br) {
		return nil, false
	}
	if len(br.Tables) == 0 {
		writeErr(w, http.StatusBadRequest, "batch needs at least one table")
		return nil, false
	}
	tables := make([]*table.Table, len(br.Tables))
	for i := range br.Tables {
		t, err := br.Tables[i].toTable()
		if err != nil {
			writeErr(w, http.StatusBadRequest, "table %d: %v", i, err)
			return nil, false
		}
		tables[i] = t
	}
	return tables, true
}

// serveInfer is the one request path of /v1/predict, /v1/predict-batch and
// /v1/index: decode the body into tables under a "parse" span, lease the
// primary engine, run the tables through it under an "infer" span (one
// PredictBatchCtx call when batch, else PredictCtx), release the lease, and
// map any failure onto the wire. The spans nest under the root span the
// route middleware opened, so their histograms are span.<route>.parse and
// span.<route>.infer. ok is false when the error response has already been
// written.
func (s *Server) serveInfer(w http.ResponseWriter, r *http.Request, batch bool,
	decode func(http.ResponseWriter, *http.Request) ([]*table.Table, bool),
) (tables []*table.Table, preds [][]core.ColumnPrediction, ok bool) {
	ctx := r.Context()
	_, parse := obs.StartSpan(ctx, "parse")
	tables, ok = decode(w, r)
	parse.End()
	if !ok {
		return nil, nil, false
	}
	_, inferSp := obs.StartSpan(ctx, "infer")
	slot, ok := s.leasePrimary()
	if !ok {
		inferSp.End()
		writeErr(w, http.StatusServiceUnavailable, "%v", errNoModel)
		return nil, nil, false
	}
	var err error
	if batch {
		preds, err = slot.engine.PredictBatchCtx(ctx, tables)
	} else {
		var p []core.ColumnPrediction
		p, err = slot.engine.PredictCtx(ctx, tables[0])
		preds = [][]core.ColumnPrediction{p}
	}
	slot.engine.Release()
	inferSp.End()
	if err != nil {
		s.writeInferErr(w, err)
		return nil, nil, false
	}
	return tables, preds, true
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	tables, preds, ok := s.serveInfer(w, r, false, decodeTable(false))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, toResponse(tables[0], preds[0]))
	// Strictly after the response is written: shadow-score the request on a
	// shadowing candidate, off this goroutine. The primary response bytes
	// are final — shadowing cannot perturb them (bit-identity test).
	s.maybeShadow(tables, preds)
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	tables, batch, ok := s.serveInfer(w, r, true, decodeBatch)
	if !ok {
		return
	}
	resp := BatchResponse{Results: make([]PredictResponse, len(batch))}
	for i, preds := range batch {
		resp.Results[i] = *toResponse(tables[i], preds)
	}
	writeJSON(w, http.StatusOK, resp)
	s.maybeShadow(tables, batch) // after the response bytes are final
}

// handleMetrics serves a point-in-time JSON snapshot of the registry —
// every counter, gauge (cache stats included), per-stage and per-route
// histogram with quantile estimates. The shape matches what PublishExpvar
// exposes under /debug/vars. With ?format=prom it renders the Prometheus
// text exposition format instead (sorted families, cumulative buckets) for
// scrape targets.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// TracesResponse is the body of GET /v1/traces.
type TracesResponse struct {
	Count  int         `json:"count"`
	Traces []obs.Trace `json:"traces"`
}

// handleTraces serves the trace ring buffer, newest first. Query filters:
//
//	?min_ms=50   traces at least 50ms long
//	?route=predict (or /v1/predict) traces of one route
//	?error=1     errored traces only
//	?limit=20    cap the result count
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	var f obs.TraceFilter
	q := r.URL.Query()
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeErr(w, http.StatusBadRequest, "invalid min_ms %q", v)
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("route"); v != "" {
		f.Route = strings.TrimPrefix(v, "/v1/")
	}
	if v := q.Get("error"); v != "" {
		f.ErrorOnly = v == "1" || strings.EqualFold(v, "true")
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "invalid limit %q", v)
			return
		}
		f.Limit = n
	}
	traces := s.recorder.Traces(f)
	writeJSON(w, http.StatusOK, TracesResponse{Count: len(traces), Traces: traces})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	tables, preds, ok := s.serveInfer(w, r, false, decodeTable(true))
	if !ok {
		return
	}
	// One inference pass serves both the response and the index update. The
	// lake retains the table itself so a model upgrade can re-type it
	// (POST /v1/index/rescore); the SwapIndex dual-writes into any shadow
	// build in progress so a concurrent re-score cannot lose this add.
	t := tables[0]
	s.lake.Put(t)
	s.index.AddPredictions(t, preds[0])
	resp := toResponse(t, preds[0])
	resp.Indexed = true
	writeJSON(w, http.StatusOK, resp)
}

// SearchResponse is the body of /v1/search.
type SearchResponse struct {
	Types  []string `json:"types"`
	Tables []string `json:"tables"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	types := r.URL.Query()["type"]
	if len(types) == 0 {
		writeErr(w, http.StatusBadRequest, "at least one ?type= parameter required")
		return
	}
	writeJSON(w, http.StatusOK, SearchResponse{
		Types:  types,
		Tables: s.index.Current().TablesWithAll(types...),
	})
}

func (s *Server) handleTypes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"indexed":    s.index.Current().Types(),
		"vocabulary": s.modelTypes(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.index.Current().Stats()
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// Load balancers poll this endpoint: a draining instance must fail
		// its health check so traffic moves away before the listener closes.
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"types":          s.modelTypes(),
		"indexed_tables": st.Tables,
		"indexed_cols":   st.Columns,
	})
}

// handleReadyz is the readiness probe, distinct from the liveness probe at
// /v1/healthz: ready means a primary model is serving and the server is not
// draining — i.e. a request sent now would be admitted rather than turned
// away. Load balancers gate traffic on it, and loadgen polls it before
// opening a measured window so warmup never includes a half-started server.
// Lifecycle transitions never pass through an unready state: promote and
// rollback swap the primary pointer without ever storing nil, and a failed
// candidate load touches nothing but the error response (both are
// regression-tested) — readiness only drops when the server drains.
// Admission-exempt, like the other probe endpoints.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	m := s.model()
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "status": "draining",
		})
	case m == nil:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "status": "no model loaded",
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"ready": true, "status": "ready", "types": len(m.Types()),
		})
	}
}

// handleSLO serves the SLO engine's status: every objective with its
// budget-window counts, remaining error budget, and the four burn-rate
// windows with the fast/slow alert-pair states. The same numbers are
// exported as gauges through /v1/metrics (slo.* families); this endpoint is
// the structured report an operator or the load harness reads directly.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sloEng.Status())
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	st := r.URL.Query().Get("type")
	if st == "" {
		writeErr(w, http.StatusBadRequest, "?type= parameter required")
		return
	}
	limit := 50
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "invalid limit %q", q)
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"type":       st,
		"candidates": s.index.Current().JoinCandidates(st, limit),
	})
}

func (s *Server) handleUnion(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("table")
	if id == "" {
		writeErr(w, http.StatusBadRequest, "?table= parameter required")
		return
	}
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "invalid k %q", q)
			return
		}
		k = n
	}
	cands, err := s.index.Current().UnionCandidates(id, k)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table":      id,
		"candidates": cands,
	})
}
