package infer

import (
	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/obs"
)

// chunkBuckets sizes the chunk/batch histograms: power-of-two table counts
// up to 4096 (the engine never unions more than maxBatch, but batch-size
// distribution above it is still informative).
var chunkBuckets = obs.ExpBuckets(1, 2, 13)

// engineMetrics holds the engine's pre-resolved metric handles (DESIGN.md
// §8). Handles are looked up once at wiring time so the serving path pays
// only atomic updates. The zero value (observability off) holds nil
// handles, which the obs package makes inert, so recording sites never
// branch on whether telemetry is on.
//
//	infer.stage.prepare.seconds   histogram, one observation per table
//	infer.stage.union.seconds     histogram, one observation per chunk
//	infer.stage.forward.seconds   histogram, one observation per chunk
//	infer.stage.decode.seconds    histogram, one observation per chunk
//	infer.chunk.tables            histogram of union-chunk sizes
//	infer.batch.tables            histogram of PredictBatch input sizes
//	infer.workers.busy            gauge, currently running pool workers
//	infer.batches / infer.tables  cumulative request counters
//
// Model-quality telemetry, one observation per served column prediction
// (recordPredictions):
//
//	infer.confidence                    histogram over ConfidenceBuckets
//	infer.predictions                   counter, total predictions served
//	infer.predictions.low_confidence    counter, confidence < 0.3 — the
//	                                    abstain-or-review band
//	infer.predicted{type="..."}         labeled counter per predicted type
type engineMetrics struct {
	reg     *obs.Registry
	prepare *obs.Histogram
	union   *obs.Histogram
	forward *obs.Histogram
	decode  *obs.Histogram
	chunks  *obs.Histogram
	batch   *obs.Histogram
	busy    *obs.Gauge
	batches *obs.Counter
	tables  *obs.Counter

	confidence  *obs.Histogram
	predictions *obs.Counter
	lowConf     *obs.Counter
	// byType maps every model vocabulary type to its pre-resolved labeled
	// counter — the hot path pays one map read, never a registry lock.
	byType map[string]*obs.Counter
}

// lowConfidenceThreshold marks a served prediction as needing review; it
// mirrors the abstain band the paper's precision/coverage trade-off targets.
const lowConfidenceThreshold = 0.3

func newEngineMetrics(reg *obs.Registry, types []string) engineMetrics {
	m := engineMetrics{
		reg:     reg,
		prepare: reg.Histogram("infer.stage.prepare.seconds", nil),
		union:   reg.Histogram("infer.stage.union.seconds", nil),
		forward: reg.Histogram("infer.stage.forward.seconds", nil),
		decode:  reg.Histogram("infer.stage.decode.seconds", nil),
		chunks:  reg.Histogram("infer.chunk.tables", chunkBuckets),
		batch:   reg.Histogram("infer.batch.tables", chunkBuckets),
		busy:    reg.Gauge("infer.workers.busy"),
		batches: reg.Counter("infer.batches"),
		tables:  reg.Counter("infer.tables"),

		confidence:  reg.Histogram("infer.confidence", obs.ConfidenceBuckets),
		predictions: reg.Counter("infer.predictions"),
		lowConf:     reg.Counter("infer.predictions.low_confidence"),
		byType:      make(map[string]*obs.Counter, len(types)),
	}
	for _, t := range types {
		m.byType[t] = reg.Counter(obs.Labels("infer.predicted", "type", t))
	}
	return m
}

// EnableMetrics attaches a metrics registry to the engine: per-stage
// latency histograms, worker-pool utilization and chunk-size distributions,
// plus the underlying encoder's cache gauges. It must be called before the
// engine serves traffic (it is not synchronized against concurrent
// Predict/PredictBatch calls); once a registry is attached, later calls are
// no-ops.
func (e *Engine) EnableMetrics(reg *obs.Registry) {
	if reg == nil || e.metrics.reg != nil {
		return
	}
	e.metrics = newEngineMetrics(reg, e.model.Types())
	if enc := e.model.Encoder(); enc != nil {
		enc.RegisterMetrics(reg)
	}
}

// EnableDrift attaches a drift monitor built from a training-time baseline:
// every served prediction feeds the monitor, and when a metrics registry is
// already attached its distribution-distance scores are registered there as
// drift.* gauges. A nil monitor is ignored (drift telemetry stays off, the
// default).
func (e *Engine) EnableDrift(m *obs.DriftMonitor) {
	if m == nil {
		return
	}
	e.drift = m
	if e.metrics.reg != nil {
		m.Register(e.metrics.reg)
	}
}

// Drift returns the engine's drift monitor (nil when drift telemetry is
// off).
func (e *Engine) Drift() *obs.DriftMonitor { return e.drift }

// recordPredictions feeds one table's served predictions into the
// model-quality telemetry: the confidence histogram, per-type labeled
// counters, the low-confidence counter, and the drift monitor. Called once
// per decoded table. Offline scoring (core.Model.EvaluateCtx) never runs
// through the engine, so it cannot pollute serving telemetry.
func (e *Engine) recordPredictions(preds []core.ColumnPrediction) {
	m := &e.metrics
	if m.reg == nil && e.drift == nil {
		return
	}
	for i := range preds {
		p := &preds[i]
		m.predictions.Inc()
		m.confidence.Observe(p.Confidence)
		if p.Confidence < lowConfidenceThreshold {
			m.lowConf.Inc()
		}
		m.byType[p.Type].Inc() // nil (inert) for unknown types and when off
		e.drift.Observe(p.Type, p.Confidence)
	}
}

// Metrics returns the registry the engine records into (nil when
// uninstrumented).
func (e *Engine) Metrics() *obs.Registry { return e.metrics.reg }
