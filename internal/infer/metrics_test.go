package infer

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

// TestMetricsPopulatedByPredictBatch: after one batched call, every stage
// histogram has observations with the expected cardinality — one per table
// for prepare, one per chunk for union/forward/decode.
func TestMetricsPopulatedByPredictBatch(t *testing.T) {
	m, c := trainedModel(t)
	reg := obs.NewRegistry()
	eng := New(m, WithWorkers(4), WithMaxBatch(4))
	eng.EnableMetrics(reg)
	if eng.Metrics() != reg {
		t.Fatal("Metrics() should return the wired registry")
	}

	tables := c.Tables[:8]
	eng.PredictBatch(tables)

	s := reg.Snapshot()
	wantChunks := uint64(len(eng.chunkBounds(len(tables))))
	for name, want := range map[string]uint64{
		"infer.stage.prepare.seconds": uint64(len(tables)),
		"infer.stage.union.seconds":   wantChunks,
		"infer.stage.forward.seconds": wantChunks,
		"infer.stage.decode.seconds":  wantChunks,
		"infer.chunk.tables":          wantChunks,
		"infer.batch.tables":          1,
	} {
		if got := s.Histograms[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
	if got := s.Counters["infer.batches"]; got != 1 {
		t.Errorf("infer.batches = %d, want 1", got)
	}
	if got := s.Counters["infer.tables"]; got != uint64(len(tables)) {
		t.Errorf("infer.tables = %d, want %d", got, len(tables))
	}
	// Pool fully drained: the busy gauge must be back to zero.
	if got := s.Gauges["infer.workers.busy"]; got != 0 {
		t.Errorf("infer.workers.busy = %v after batch, want 0", got)
	}
	// EnableMetrics also registers the encoder cache gauges.
	if _, ok := s.Gauges["lm.cache.text.entries"]; !ok {
		t.Error("encoder cache gauges not registered")
	}
}

// TestMetricsSingleTablePaths: Predict and a 1-table PredictBatch must
// count tables exactly once.
func TestMetricsSingleTablePaths(t *testing.T) {
	m, c := trainedModel(t)
	reg := obs.NewRegistry()
	eng := New(m)
	eng.EnableMetrics(reg)

	eng.Predict(c.Tables[0])
	eng.PredictBatch(c.Tables[:1])

	s := reg.Snapshot()
	if got := s.Counters["infer.tables"]; got != 2 {
		t.Fatalf("infer.tables = %d, want 2", got)
	}
	if got := s.Counters["infer.batches"]; got != 1 {
		t.Fatalf("infer.batches = %d, want 1", got)
	}
	if got := s.Histograms["infer.stage.prepare.seconds"].Count; got != 2 {
		t.Fatalf("prepare count = %d, want 2", got)
	}
	if got := s.Histograms["infer.stage.decode.seconds"].Count; got != 2 {
		t.Fatalf("decode count = %d, want 2", got)
	}
}

// TestInstrumentationPreservesOutput: metrics must be observational only —
// instrumented and uninstrumented engines produce identical predictions.
func TestInstrumentationPreservesOutput(t *testing.T) {
	m, c := trainedModel(t)
	plain := New(m, WithWorkers(3), WithMaxBatch(3))
	inst := New(m, WithWorkers(3), WithMaxBatch(3))
	inst.EnableMetrics(obs.NewRegistry())

	tables := c.Tables[:7]
	want := plain.PredictBatch(tables)
	got := inst.PredictBatch(tables)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("instrumented PredictBatch diverged from uninstrumented")
	}
	if !reflect.DeepEqual(plain.Predict(tables[0]), inst.Predict(tables[0])) {
		t.Fatal("instrumented Predict diverged from uninstrumented")
	}
}

// TestMetricsDefaultOff: without EnableMetrics the engine records nothing.
func TestMetricsDefaultOff(t *testing.T) {
	m, c := trainedModel(t)
	eng := New(m)
	if eng.Metrics() != nil {
		t.Fatal("default engine should be uninstrumented")
	}
	eng.PredictBatch(c.Tables[:3]) // must not panic on nil metric handles
}

// TestMetricsConcurrentPredictBatch hammers a shared instrumented engine
// from many goroutines while snapshots run — the acceptance race test for
// registry snapshots under concurrent PredictBatch load.
func TestMetricsConcurrentPredictBatch(t *testing.T) {
	m, c := trainedModel(t)
	reg := obs.NewRegistry()
	eng := New(m, WithWorkers(2), WithMaxBatch(3))
	eng.EnableMetrics(reg)

	const callers = 4
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tables := []*table.Table{
				c.Tables[g%len(c.Tables)],
				c.Tables[(g+1)%len(c.Tables)],
				c.Tables[(g+2)%len(c.Tables)],
				c.Tables[(g+3)%len(c.Tables)],
			}
			for rep := 0; rep < 3; rep++ {
				eng.PredictBatch(tables)
				_ = reg.Snapshot()
			}
		}(g)
	}
	wg.Wait()

	s := reg.Snapshot()
	if got := s.Counters["infer.tables"]; got != callers*3*4 {
		t.Fatalf("infer.tables = %d, want %d", got, callers*3*4)
	}
}

// TestPredictionTelemetry: serving records the confidence histogram, total
// and per-type labeled counters, and the low-confidence band.
func TestPredictionTelemetry(t *testing.T) {
	m, c := trainedModel(t)
	reg := obs.NewRegistry()
	eng := New(m)
	eng.EnableMetrics(reg)

	preds := eng.PredictBatch(c.Tables[:4])
	var want uint64
	for _, ps := range preds {
		want += uint64(len(ps))
	}
	if want == 0 {
		t.Fatal("no predictions served")
	}
	s := reg.Snapshot()
	if got := s.Counters["infer.predictions"]; got != want {
		t.Fatalf("infer.predictions = %d, want %d", got, want)
	}
	if got := s.Histograms["infer.confidence"].Count; got != want {
		t.Fatalf("infer.confidence count = %d, want %d", got, want)
	}
	var byType uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "infer.predicted{") {
			byType += v
		}
	}
	if byType != want {
		t.Fatalf("per-type counters sum to %d, want %d", byType, want)
	}
	if low := s.Counters["infer.predictions.low_confidence"]; low > want {
		t.Fatalf("low-confidence %d exceeds total %d", low, want)
	}
}

// TestDriftGaugesMove is the acceptance check for drift telemetry: serving
// traffic that matches the baseline keeps the scores near zero; serving a
// shifted distribution drives them above the control.
func TestDriftGaugesMove(t *testing.T) {
	m, c := trainedModel(t)
	baseline := m.ComputeDriftBaseline(c.Tables)
	if baseline.Total() == 0 {
		t.Fatal("empty baseline from training tables")
	}

	// Control: serve the very tables the baseline was computed from.
	ctrlReg := obs.NewRegistry()
	ctrl := New(m)
	ctrl.EnableMetrics(ctrlReg)
	ctrl.EnableDrift(obs.NewDriftMonitor(baseline))
	ctrl.PredictBatch(c.Tables)

	// Shifted: tables whose columns are all the same synthetic shape, far
	// from the corpus mix.
	shiftReg := obs.NewRegistry()
	shift := New(m)
	shift.EnableMetrics(shiftReg)
	shift.EnableDrift(obs.NewDriftMonitor(baseline))
	odd := &table.Table{Name: "Odd", ID: "odd", Columns: []*table.Column{
		{Header: "zz9", Kind: table.KindNumeric, NumValues: []float64{1e9, 2e9, 3e9}},
		{Header: "qqq", Kind: table.KindNumeric, NumValues: []float64{-7e8, -8e8, -9e8}},
	}}
	for i := 0; i < 20; i++ {
		shift.Predict(odd)
	}

	ctrlScore := ctrlReg.Snapshot().Gauges["drift.type.score"]
	shiftScore := shiftReg.Snapshot().Gauges["drift.type.score"]
	if shiftScore <= ctrlScore {
		t.Fatalf("shifted type drift %v <= control %v", shiftScore, ctrlScore)
	}
	if obsv := shiftReg.Snapshot().Gauges["drift.observations"]; obsv != 40 {
		t.Fatalf("drift.observations = %v, want 40", obsv)
	}
}

// TestEnableDriftRegistersOnExistingRegistry: the post-construction path.
func TestEnableDriftRegistersOnExistingRegistry(t *testing.T) {
	m, c := trainedModel(t)
	reg := obs.NewRegistry()
	eng := New(m)
	eng.EnableMetrics(reg)
	eng.EnableDrift(obs.NewDriftMonitor(m.ComputeDriftBaseline(c.Tables[:2])))
	eng.Predict(c.Tables[0])
	if _, ok := reg.Snapshot().Gauges["drift.type.score"]; !ok {
		t.Fatal("EnableDrift did not register gauges")
	}
	eng.EnableDrift(nil) // must not clear an attached monitor
	if eng.Drift() == nil {
		t.Fatal("EnableDrift(nil) cleared the monitor")
	}
}
