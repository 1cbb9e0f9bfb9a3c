package infer

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/lm"
)

// trainedModel trains a small model once for the whole test package.
var (
	modelOnce sync.Once
	testModel *core.Model
	testCorp  *data.Corpus
)

func trainedModel(t *testing.T) (*core.Model, *data.Corpus) {
	t.Helper()
	modelOnce.Do(func() {
		c := data.GenerateSportsTables(data.SportsConfig{
			NumTables: 24, Seed: 11, MinRows: 6, MaxRows: 10, WeakNameProb: 0.1, Domains: 3,
		})
		enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 256, Buckets: 1 << 12, Seed: 7})
		cfg := core.DefaultConfig(enc)
		cfg.Epochs = 4
		cfg.Patience = 4
		m, err := core.Train(c, []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{8, 9}, cfg)
		if err != nil {
			panic(err)
		}
		testModel, testCorp = m, c
	})
	if testModel == nil {
		t.Fatal("model training failed")
	}
	return testModel, testCorp
}

// TestPredictBatchMatchesPredictTable is the engine's core contract: the
// batched union forward pass must be bit-identical to the legacy per-table
// path — same types, same confidences, down to the last float.
func TestPredictBatchMatchesPredictTable(t *testing.T) {
	m, c := trainedModel(t)
	tables := c.Tables[10:22]

	eng := New(m, WithWorkers(4))
	batch := eng.PredictBatch(tables)
	if len(batch) != len(tables) {
		t.Fatalf("PredictBatch returned %d results for %d tables", len(batch), len(tables))
	}
	for ti, tab := range tables {
		want := m.PredictTable(tab)
		got := batch[ti]
		if len(got) != len(want) {
			t.Fatalf("table %d: %d predictions, want %d", ti, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("table %d col %d: batch %+v != single %+v", ti, i, got[i], want[i])
			}
		}
	}
}

func TestPredictBatchEmptyAndSingle(t *testing.T) {
	m, c := trainedModel(t)
	eng := New(m)
	if got := eng.PredictBatch(nil); got != nil {
		t.Fatalf("empty batch should return nil, got %v", got)
	}
	single := eng.PredictBatch(c.Tables[:1])
	want := m.PredictTable(c.Tables[0])
	if len(single) != 1 || len(single[0]) != len(want) {
		t.Fatalf("single-table batch shape mismatch")
	}
	for i := range want {
		if single[0][i] != want[i] {
			t.Fatalf("single-table batch diverged at col %d", i)
		}
	}
}

// TestEvaluateMatchesModelEvaluate asserts the parallel chunked scorer
// (core.Model.EvaluateCtx) reproduces the serial core.Model.Evaluate
// exactly — same metrics, same prediction list — at every worker count,
// including counts that do and don't divide the table count.
func TestEvaluateMatchesModelEvaluate(t *testing.T) {
	m, c := trainedModel(t)
	idx := []int{10, 11, 12, 13, 14, 15, 16}
	wantSplit, wantPreds := m.Evaluate(c, idx)
	if len(wantPreds) == 0 {
		t.Fatal("serial Evaluate produced no predictions")
	}
	for _, workers := range []int{1, 4, 8} {
		gotSplit, gotPreds, err := m.EvaluateCtx(context.Background(), c, idx, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(gotPreds, wantPreds) {
			t.Fatalf("workers=%d: prediction list differs from serial Evaluate", workers)
		}
		if !reflect.DeepEqual(gotSplit, wantSplit) {
			t.Fatalf("workers=%d: split differs from serial Evaluate", workers)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.EvaluateCtx(ctx, c, idx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled EvaluateCtx err = %v", err)
	}
}

// TestChunkingInvariance asserts PredictBatch output does not depend on how
// the batch is split into union forward passes: any worker count and
// maxBatch must produce the same bits.
func TestChunkingInvariance(t *testing.T) {
	m, c := trainedModel(t)
	tables := c.Tables[:11]
	want := New(m, WithWorkers(1), WithMaxBatch(11)).PredictBatch(tables)
	for _, w := range []int{1, 2, 3, 5} {
		for _, mb := range []int{2, 5, 16} {
			got := New(m, WithWorkers(w), WithMaxBatch(mb)).PredictBatch(tables)
			for ti := range want {
				for i := range want[ti] {
					if got[ti][i] != want[ti][i] {
						t.Fatalf("workers=%d maxBatch=%d: table %d col %d diverged", w, mb, ti, i)
					}
				}
			}
		}
	}
}

// TestChunkBounds checks the chunk partition: contiguous, complete, and
// bounded by maxBatch.
func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ n, workers, maxBatch, chunks int }{
		{16, 1, 16, 1}, // one worker: a single whole-input union
		{16, 4, 16, 4}, // spread across the pool
		{16, 4, 3, 6},  // maxBatch caps the chunk size
		{5, 8, 16, 5},  // more workers than tables: one table per chunk
		{0, 4, 16, 0},  // empty input
		{1, 4, 16, 1},
	} {
		e := &Engine{workers: tc.workers, maxBatch: tc.maxBatch}
		bounds := e.chunkBounds(tc.n)
		if len(bounds) != tc.chunks {
			t.Fatalf("n=%d w=%d mb=%d: %d chunks, want %d", tc.n, tc.workers, tc.maxBatch, len(bounds), tc.chunks)
		}
		at := 0
		for _, b := range bounds {
			if b[0] != at || b[1] <= b[0] || b[1]-b[0] > tc.maxBatch {
				t.Fatalf("n=%d w=%d mb=%d: bad chunk %v at %d", tc.n, tc.workers, tc.maxBatch, b, at)
			}
			at = b[1]
		}
		if at != tc.n {
			t.Fatalf("n=%d w=%d mb=%d: chunks cover %d of %d", tc.n, tc.workers, tc.maxBatch, at, tc.n)
		}
	}
}

// TestPredictTableDeterministic guards the bit-identity contract's
// foundation: repeated single-table predictions must produce identical
// floats (this once failed at ulp level due to map-iteration order in the
// entropy features).
func TestPredictTableDeterministic(t *testing.T) {
	m, c := trainedModel(t)
	for i, tab := range c.Tables[:8] {
		a := m.PredictTable(tab)
		b := m.PredictTable(tab)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("table %d col %d: %+v != %+v", i, j, a[j], b[j])
			}
		}
	}
}

// TestConcurrentPredictions exercises one shared Engine from many
// goroutines (meaningful under -race): the model, encoder cache, and
// engine must all be read-only or internally synchronized.
func TestConcurrentPredictions(t *testing.T) {
	m, c := trainedModel(t)
	eng := New(m, WithWorkers(2))
	want := make([][]core.ColumnPrediction, len(c.Tables))
	for i, tab := range c.Tables {
		want[i] = m.PredictTable(tab)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if w%2 == 0 {
					// batched path
					got := eng.PredictBatch(c.Tables)
					for i := range want {
						if len(got[i]) != len(want[i]) || got[i][0] != want[i][0] {
							t.Errorf("worker %d: batch result diverged on table %d", w, i)
							return
						}
					}
				} else {
					// single-table path
					i := (w + rep) % len(c.Tables)
					got := eng.Predict(c.Tables[i])
					for j := range want[i] {
						if got[j] != want[i][j] {
							t.Errorf("worker %d: predict diverged on table %d col %d", w, i, j)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
