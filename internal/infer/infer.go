// Package infer is the staged inference engine of Pythagoras: the
// production serving path that types the columns of a batch of tables with
// one Prepare → Union → Forward → Decode pipeline.
//
// Stages (see DESIGN.md §7):
//
//  1. Prepare — table → heterogeneous graph → frozen-LM node states and
//     standardized feature rows, per table. Dominated by the transformer, so
//     the engine fans it out over a worker pool; the lm.Encoder cache is
//     sharded to keep workers from serializing.
//  2. Union   — the prepared tables are split into per-worker chunks of at
//     most maxBatch tables and each chunk's graphs are unioned: exactly the
//     minibatch mechanism the training loop uses.
//  3. Forward — one gradient-free GNN pass per chunk, chunks in parallel.
//  4. Decode  — each chunk's class probabilities are split back into
//     per-table column predictions.
//
// There is one pipeline and every entry point runs it: PredictBatchCtx runs
// it on its input, PredictCtx on a one-table slice, and Predict/PredictBatch
// are their context.Background() wrappers. Because a union forward is
// bit-identical to the per-table forwards it replaces (row-wise ops,
// per-destination scatter accumulation), the chunking is unobservable in the
// output, which is bit-identical to looping core.Model.PredictTable.
//
// The pipeline is interruptible (DESIGN.md §9): cancellation is checked
// before each table the prepare pool claims, between chunks, and before each
// chunk's union, forward and decode, so a vanished client or an expired
// deadline aborts the call at the next stage boundary with a partial-work
// drain — workers finish the item they are on, nothing new is started, and
// the first error comes back. Cancellation never changes bits: a call that
// completes under a cancellable context is byte-identical to the same call
// without one.
//
// The engine holds no mutable state: a single Engine is safe for concurrent
// use from any number of goroutines.
package infer

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/par"
	"github.com/sematype/pythagoras/internal/table"
)

// Engine schedules staged inference over a trained, read-only model.
type Engine struct {
	model *core.Model
	// workers bounds the fan-out of both the prepare stage and the chunked
	// forward stage (default runtime.NumCPU()).
	workers int
	// maxBatch bounds how many tables are unioned into one forward pass
	// (default 16 — the training loop's default batch size). Larger batches
	// are split into chunks run concurrently across the worker pool.
	maxBatch int
	// metrics receives per-stage latency histograms, chunk-size
	// distributions and pool utilization (see metrics.go). Until
	// EnableMetrics runs its handles are nil, and nil obs handles are inert.
	metrics engineMetrics
	// drift, when non-nil, accumulates the served prediction distribution
	// against a training-time baseline (see EnableDrift). Nil-safe throughout.
	drift *obs.DriftMonitor
	// faults, when non-nil, fires the chaos suite's injection points at
	// each stage boundary (DESIGN.md §9). Nil — always, outside tests —
	// costs one branch per stage.
	faults *faultinject.Set

	// Lease refcount for zero-downtime swaps (lifecycle.go): refs starts at
	// 1 (the owner's reference), Acquire/Release bracket each request, and
	// Retire drops the owner's reference so the engine drains and dies.
	refs      atomic.Int64
	retired   atomic.Bool
	onDrained atomic.Pointer[func()]
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the prepare-stage worker count (values < 1 reset to the
// default).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithMaxBatch sets how many tables the pipeline unions per forward pass
// (values < 1 reset to the default).
func WithMaxBatch(n int) Option { return func(e *Engine) { e.maxBatch = n } }

// WithFaults arms fault-injection points at the engine's stage boundaries —
// test support for the chaos suite, never set in production (nil disables,
// the default).
func WithFaults(fs *faultinject.Set) Option { return func(e *Engine) { e.faults = fs } }

// New builds an inference engine around a trained model.
func New(m *core.Model, opts ...Option) *Engine {
	e := &Engine{model: m, workers: runtime.NumCPU(), maxBatch: 16}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = runtime.NumCPU()
	}
	if e.maxBatch < 1 {
		e.maxBatch = 16
	}
	e.refs.Store(1) // the owner's reference; Retire gives it up
	return e
}

// Model returns the engine's underlying model.
func (e *Engine) Model() *core.Model { return e.model }

// Predict types the columns of one table. It is PredictCtx under a
// background context (not cancellable); serving paths use PredictCtx.
func (e *Engine) Predict(t *table.Table) []core.ColumnPrediction {
	out, _ := e.PredictCtx(context.Background(), t)
	return out
}

// PredictCtx runs the engine's pipeline on a one-table slice: cancellation
// (or an injected fault) is observed at the same stage gates as a batch,
// returning the error with no partial result. The output is bit-identical
// to core.Model.PredictTable.
func (e *Engine) PredictCtx(ctx context.Context, t *table.Table) ([]core.ColumnPrediction, error) {
	out, err := e.run(ctx, []*table.Table{t})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// PredictBatch predicts the semantic types of every column of every input
// table. Output i corresponds to input i and is bit-identical to
// Predict(ts[i]). It cannot be cancelled; serving paths use
// PredictBatchCtx.
func (e *Engine) PredictBatch(ts []*table.Table) [][]core.ColumnPrediction {
	out, _ := e.PredictBatchCtx(context.Background(), ts)
	return out
}

// PredictBatchCtx runs the engine's pipeline on a batch of tables under a
// context. On abort it returns nil results and the first error after
// draining — every in-flight stage call runs to completion, nothing new
// starts. A completed call is bit-identical to PredictBatch.
func (e *Engine) PredictBatchCtx(ctx context.Context, ts []*table.Table) ([][]core.ColumnPrediction, error) {
	if len(ts) == 0 {
		return nil, ctx.Err()
	}
	e.metrics.batches.Inc()
	e.metrics.batch.Observe(float64(len(ts)))
	return e.run(ctx, ts)
}

// stageGate is the per-stage interruption check: context first, then any
// armed fault. Both are one branch each when unset.
func stageGate(ctx context.Context, fs *faultinject.Set, p faultinject.Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fs.Fire(ctx, p)
}

// parallelFor runs fn(0..n-1) over the engine's worker pool via par.For
// (drain-on-cancel semantics, first error wins). Used for both the prepare
// stage and the chunked forward stage: both only read the frozen model and
// the internally synchronized encoder cache.
//
// When instrumented, the infer.workers.busy gauge tracks how many pool
// workers are inside fn — sampled by registry snapshots, it is the
// pool-utilization signal.
func (e *Engine) parallelFor(ctx context.Context, n int, fn func(i int) error) error {
	if busy := e.metrics.busy; busy != nil {
		inner := fn
		fn = func(i int) error {
			busy.Add(1)
			defer busy.Add(-1)
			return inner(i)
		}
	}
	return par.For(ctx, e.workers, n, fn)
}

// chunkBounds splits n prepared tables into contiguous [lo, hi) chunks — as
// even as possible across the worker pool, never larger than maxBatch. Chunk
// boundaries are unobservable in the output: a union forward is bit-identical
// to the per-table forwards it replaces.
func (e *Engine) chunkBounds(n int) [][2]int {
	return par.Bounds(n, e.workers, e.maxBatch)
}

// run is the engine's one pipeline: tables are prepared in parallel, split
// into chunks, and each chunk is unioned, forwarded and decoded (chunks in
// parallel). ts must be non-empty.
func (e *Engine) run(ctx context.Context, ts []*table.Table) ([][]core.ColumnPrediction, error) {
	e.metrics.tables.Add(uint64(len(ts)))
	ps := make([]*core.Prepared, len(ts))
	err := e.parallelFor(ctx, len(ts), func(i int) error {
		if err := e.faults.Fire(ctx, faultinject.InferPrepare); err != nil {
			return err
		}
		t0 := time.Now()
		ps[i] = e.model.PrepareForPrediction(ts[i])
		e.metrics.prepare.Since(t0)
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([][]core.ColumnPrediction, len(ts))
	bounds := e.chunkBounds(len(ts))
	err = e.parallelFor(ctx, len(bounds), func(c int) error {
		return e.runChunk(ctx, ts, ps, out, bounds[c][0], bounds[c][1])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runChunk unions ps[lo:hi], runs one gradient-free forward over the union
// and decodes it into out[lo:hi]. The context and fault gates run before
// each of the three steps. Instrumented, each step is timed separately; a
// single-table chunk still observes its ~zero union cost, so the union
// histogram's count always matches the chunk count.
func (e *Engine) runChunk(ctx context.Context, ts []*table.Table, ps []*core.Prepared, out [][]core.ColumnPrediction, lo, hi int) error {
	m := &e.metrics
	if err := stageGate(ctx, e.faults, faultinject.InferUnion); err != nil {
		return err
	}
	t0 := time.Now()
	p := ps[lo]
	if hi-lo > 1 {
		p = core.UnionPrepared(ps[lo:hi])
	}
	m.union.Since(t0)
	m.chunks.Observe(float64(hi - lo))
	if err := stageGate(ctx, e.faults, faultinject.InferForward); err != nil {
		return err
	}
	t0 = time.Now()
	probs, targets := e.model.InferProbs(p)
	m.forward.Since(t0)
	if err := stageGate(ctx, e.faults, faultinject.InferDecode); err != nil {
		return err
	}
	t0 = time.Now()
	at := 0
	for i := lo; i < hi; i++ {
		n := len(ps[i].Graph.TargetNodes())
		out[i] = e.model.DecodePredictions(p, probs, targets, at, at+n, ts[i])
		e.recordPredictions(out[i])
		at += n
	}
	m.decode.Since(t0)
	return nil
}
