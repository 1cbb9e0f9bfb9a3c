package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

// trainRig is train's set-up: the reduced SportsTables corpus and its
// 60/20/20 split.
type trainRig struct {
	corpus           *data.Corpus
	train, val, test []int
}

func setupTrain(seed int64) (*trainRig, error) {
	r := &trainRig{corpus: data.GenerateSportsTables(sportsConfig(trainTables, seed*1000+21))}
	r.train, r.val, r.test = eval.TrainValTestSplit(len(r.corpus.Tables), rand.New(rand.NewSource(seed)))
	if len(r.train) == 0 || len(r.test) < trainCheck {
		return nil, fmt.Errorf("split of %d tables too small", len(r.corpus.Tables))
	}
	return r, nil
}

// stepClock times optimizer steps through the trainer's TrainStep and
// TrainVal hooks: a step lasts from its start to the next step's start or,
// for an epoch's last step, to the start of validation.
type stepClock struct {
	mu    sync.Mutex
	start time.Time // the open step's start; zero when none is open
	steps []float64 // ms
}

func (c *stepClock) mark(step bool) faultinject.Action {
	return func(context.Context) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		now := time.Now()
		if !c.start.IsZero() {
			c.steps = append(c.steps, float64(now.Sub(c.start))/1e6)
		}
		c.start = time.Time{}
		if step {
			c.start = now
		}
		return nil
	}
}

// trainOnce trains a model from a fresh encoder, so prepare runs on a
// cold cache as a new training job's does.
func (r *trainRig) trainOnce(seed int64, reg *obs.Registry, clock *stepClock) (*core.Model, *lm.Encoder, time.Duration, error) {
	enc := lm.NewEncoder(refEncoderConfig())
	cfg := refModelConfig(enc, seed, trainEpochs)
	cfg.Faults = faultinject.New().
		On(faultinject.TrainStep, clock.mark(true)).
		On(faultinject.TrainVal, clock.mark(false))
	cfg.Metrics = reg
	t0 := time.Now()
	m, err := core.TrainCtx(context.Background(), r.corpus, r.train, r.val, cfg)
	return m, enc, time.Since(t0), err
}

func runTrain(b *bench) error {
	rig, err := timeSetups(b, trainSetupReps, func() (*trainRig, error) { return setupTrain(b.seed) }, nil)
	if err != nil {
		return err
	}
	mw := startMemWindow()
	var (
		runs        []float64 // seconds
		bare, trace []float64
		steps       []float64
		models      []*core.Model
		reg         *obs.Registry
		enc         *lm.Encoder
	)
	start, budget := time.Now(), time.Duration(b.seconds*float64(time.Second))
	var last time.Duration // the previous run's length, to stop within budget
	for i := 0; len(runs) < 2 || time.Since(start)+last <= budget; i++ {
		// The traced run alternates untraced and traced training runs, so
		// the tracing overhead is measured in-run; the traced ones also
		// collect the trainer's own train.* histograms.
		var (
			tr     *tracer
			runReg *obs.Registry
		)
		if b.tr != nil && i%2 == 1 {
			tr, runReg = b.tr, trainRegistry()
			reg = runReg // the last traced run's histograms are reported
		}
		clock := &stepClock{}
		id := tr.begin("train.run", -1, int64(i))
		m, e, d, err := rig.trainOnce(b.seed, runReg, clock)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("training run %d: %w", i, err)
		}
		runs = append(runs, d.Seconds())
		last = d
		if tr != nil {
			trace = append(trace, d.Seconds())
		} else {
			bare = append(bare, d.Seconds())
		}
		steps = append(steps, clock.steps...)
		models = append(models, m)
		enc = e
	}
	lat := summarize(steps, 0)
	trainS := median(append([]float64(nil), runs...))
	b.info("%d training runs of %d epochs on %d tables: train_s each %v, median %.3f s; step p50 %.2f ms, p%g %.2f ms (%d steps)",
		len(runs), trainEpochs, len(rig.train), runs, trainS, lat.P50, lat.Q*100, lat.TailP, lat.N)
	b.attempted += len(runs)

	m := models[len(models)-1]
	if b.tr != nil {
		// Before anything else predicts them, so the encoder cache is as
		// cold for them as training left it.
		driveHeldOut(b, rig, m)
	}
	split, _ := m.Evaluate(rig.corpus, rig.test)
	b.info("held-out numeric wF1 %.4f (overall %.4f) on %d test tables", split.Numeric.WeightedF1,
		split.Overall.WeightedF1, len(rig.test))
	if err := checkTrained(b, rig, models); err != nil {
		return err
	}

	if b.tr == nil {
		b.set("throughput_per_s", float64(trainEpochs*len(rig.train))/trainS)
		b.set("latency_p50_ms", lat.P50)
		b.set("latency_tail_ms", lat.TailP)
		b.set("train_s", trainS)
		b.set("numeric_wf1", split.Numeric.WeightedF1)
		return nil
	}

	mw.report(b)
	b.set("train.numeric_wf1", split.Numeric.WeightedF1)
	b.set("obs.trace_overhead_share", median(trace)/median(bare)-1)
	cs := enc.CacheStats()
	b.set("lm.text_cache_hit_ratio", ratio(cs.TextHits, cs.TextHits+cs.TextMisses))
	b.set("lm.token_cache_hit_ratio", ratio(cs.TokenHits, cs.TokenHits+cs.TokenMisses))
	b.set("lm.cache_evictions", float64(cs.EntriesEvicted()))
	b.set("train.prepare_s", histSum(reg, "train.prepare.seconds"))
	b.set("train.val_s", histSum(reg, "train.val.seconds"))
	b.set("train.fb_ms_p50", reg.Histogram("train.fb.seconds", nil).Quantile(0.5)*1e3)
	b.set("train.merge_ms_p50", reg.Histogram("train.merge.seconds", nil).Quantile(0.5)*1e3)
	b.set("train.steps", float64(reg.Counter("train.steps").Value()))
	return nil
}

// driveHeldOut is train's stage split: the held-out tables, which
// training never prepared, in validation-sized chunks through the stage
// functions, each checked against PredictTable.
func driveHeldOut(b *bench, rig *trainRig, m *core.Model) {
	var sp stageSplit
	workers := refModelConfig(nil, b.seed, trainEpochs).TrainWorkers
	for lo := 0; lo < len(rig.test); lo += 16 {
		hi := min(lo+16, len(rig.test))
		ts := tablesAt(rig.corpus, rig.test[lo:hi])
		got := driveStages(b.tr, m, ts, workers, 16, int64(1_000_000+lo), &sp)
		b.attempted++
		for k, t := range ts {
			if !reflect.DeepEqual(got[k], m.PredictTable(t)) {
				b.failed++
				b.info("stage split of %s differs from PredictTable", t.ID)
				break
			}
		}
	}
	reportStages(b, &sp)
}

// trainRegistry returns a registry whose train.* histograms have
// fine-grained buckets (1 µs to ~70 s, ×1.25), registered before the
// trainer asks for them so its observations land there.
func trainRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	bounds := obs.ExpBuckets(1e-6, 1.25, 80)
	for _, name := range []string{"train.prepare.seconds", "train.fb.seconds", "train.merge.seconds", "train.val.seconds"} {
		reg.Histogram(name, bounds)
	}
	return reg
}

func histSum(reg *obs.Registry, name string) float64 {
	return reg.Histogram(name, nil).Snapshot().Sum
}

func tablesAt(c *data.Corpus, idx []int) []*table.Table {
	out := make([]*table.Table, len(idx))
	for i, k := range idx {
		out[i] = c.Tables[k]
	}
	return out
}

// checkTrained verifies training outputs on held-out tables: every run
// trained the same model (the trainer is deterministic), and the last
// model predicts identically after a Save/Load round trip.
func checkTrained(b *bench, rig *trainRig, models []*core.Model) error {
	last := models[len(models)-1]
	var buf bytes.Buffer
	if err := last.Save(&buf); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	loaded, err := core.Load(&buf, refModelConfig(lm.NewEncoder(refEncoderConfig()), b.seed, trainEpochs))
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	for _, t := range tablesAt(rig.corpus, rig.test[:trainCheck]) {
		want := last.PredictTable(t)
		b.attempted++
		if !reflect.DeepEqual(loaded.PredictTable(t), want) {
			b.failed++
			b.info("table %s predicts differently after Save/Load", t.ID)
		}
		for i, m := range models[:len(models)-1] {
			if !reflect.DeepEqual(m.PredictTable(t), want) {
				b.failed++
				b.info("training run %d predicts %s differently from the last run", i, t.ID)
				break
			}
		}
	}
	return nil
}
