package infer

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/faultinject"
)

// waitGoroutines polls until the goroutine count settles back to at most
// base+slack, failing the test if it never does — the leak detector for
// cancellation paths: a drained parallelFor must park every pool worker.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNewClampsOptions: nonsensical worker/batch settings fall back to the
// defaults instead of wedging the pools.
func TestNewClampsOptions(t *testing.T) {
	e := New(nil, WithWorkers(-1), WithMaxBatch(0))
	if e.workers < 1 {
		t.Fatalf("workers = %d", e.workers)
	}
	if e.maxBatch < 1 {
		t.Fatalf("maxBatch = %d", e.maxBatch)
	}
}

// TestPredictBatchCtxCompletedIsBitIdentical: a cancellable context that is
// never cancelled must not change a single bit of the output — the
// cancellation checks are pure gates.
func TestPredictBatchCtxCompletedIsBitIdentical(t *testing.T) {
	m, c := trainedModel(t)
	tables := c.Tables[:9]
	if New(m).Model() != m {
		t.Fatal("Model must expose the engine's model")
	}
	want := New(m, WithWorkers(4)).PredictBatch(tables)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := New(m, WithWorkers(4)).PredictBatchCtx(ctx, tables)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range want {
		for i := range want[ti] {
			if got[ti][i] != want[ti][i] {
				t.Fatalf("table %d col %d diverged under cancellable context", ti, i)
			}
		}
	}
}

// TestPredictBatchCtxPreCancelled: an already-cancelled context aborts
// before any stage runs.
func TestPredictBatchCtxPreCancelled(t *testing.T) {
	m, c := trainedModel(t)
	fs := faultinject.New()
	eng := New(m, WithWorkers(2), WithFaults(fs))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := eng.PredictBatchCtx(ctx, c.Tables[:6])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if out != nil {
		t.Fatal("aborted batch must return nil results")
	}
	if fs.Fired(faultinject.InferPrepare) != 0 {
		t.Fatal("prepare ran under a pre-cancelled context")
	}

	if _, err := eng.PredictCtx(ctx, c.Tables[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("PredictCtx err = %v", err)
	}
}

// TestCancelMidChunkDrainsAndReturnsFast is the core cancellation scenario:
// the second chunk's union gate cancels the context while the batch is in
// flight. The engine must return context.Canceled promptly (< 100ms — the
// acceptance bound: an injected 10s stage delay is cut short, nothing waits
// it out) and leave no pool workers behind.
func TestCancelMidChunkDrainsAndReturnsFast(t *testing.T) {
	m, c := trainedModel(t)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fs := faultinject.New().
		// First chunk passes; the second one cancels mid-batch...
		On(faultinject.InferUnion, faultinject.After(1, faultinject.Cancel(cancel))).
		// ...and any chunk that still reaches its forward would stall 10s,
		// so only the context-aware drain can return quickly.
		On(faultinject.InferForward, faultinject.After(1, faultinject.Sleep(10*time.Second)))
	eng := New(m, WithWorkers(1), WithMaxBatch(2), WithFaults(fs))

	t0 := time.Now()
	out, err := eng.PredictBatchCtx(ctx, c.Tables[:8])
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if out != nil {
		t.Fatal("cancelled batch must return nil results")
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancelled batch took %s, want < 100ms", elapsed)
	}
	waitGoroutines(t, base)
}

// TestDeadlineExpiryDuringUnion: a slow graph-union stage under a short
// deadline surfaces context.DeadlineExceeded, not a hang.
func TestDeadlineExpiryDuringUnion(t *testing.T) {
	m, c := trainedModel(t)
	fs := faultinject.New().
		On(faultinject.InferUnion, faultinject.Sleep(10*time.Second))
	eng := New(m, WithWorkers(2), WithMaxBatch(4), WithFaults(fs))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := eng.PredictBatchCtx(ctx, c.Tables[:8])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("deadline abort took %s", elapsed)
	}
}

// TestInjectedPrepareErrorAborts: a hard failure in one prepare worker
// aborts the whole batch with that error after a drain.
func TestInjectedPrepareErrorAborts(t *testing.T) {
	m, c := trainedModel(t)
	boom := errors.New("prepare exploded")
	fs := faultinject.New().
		On(faultinject.InferPrepare, faultinject.After(2, faultinject.Err(boom)))
	eng := New(m, WithWorkers(2), WithFaults(fs))
	out, err := eng.PredictBatchCtx(context.Background(), c.Tables[:8])
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if out != nil {
		t.Fatal("failed batch must return nil results")
	}
}

// TestPredictCtxStageGates: the single-table path runs the batch pipeline,
// so it observes cancellation at each of the pipeline's four stage gates.
func TestPredictCtxStageGates(t *testing.T) {
	m, c := trainedModel(t)
	for _, point := range []faultinject.Point{
		faultinject.InferPrepare, faultinject.InferUnion, faultinject.InferForward, faultinject.InferDecode,
	} {
		ctx, cancel := context.WithCancel(context.Background())
		fs := faultinject.New().On(point, faultinject.Cancel(cancel))
		eng := New(m, WithFaults(fs))
		if _, err := eng.PredictCtx(ctx, c.Tables[0]); !errors.Is(err, context.Canceled) {
			t.Fatalf("point %s: err = %v", point, err)
		}
		cancel()
	}
}

// TestConcurrentCancelledBatches hammers the drain path under -race: many
// goroutines run batches whose contexts are cancelled at random points.
func TestConcurrentCancelledBatches(t *testing.T) {
	m, c := trainedModel(t)
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				ctx, cancel := context.WithCancel(context.Background())
				fs := faultinject.New().
					On(faultinject.InferUnion, faultinject.After(uint64(w%3), faultinject.Cancel(cancel)))
				eng := New(m, WithWorkers(2), WithMaxBatch(2), WithFaults(fs))
				out, err := eng.PredictBatchCtx(ctx, c.Tables[:6])
				if err == nil && out == nil {
					t.Error("nil result without error")
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	waitGoroutines(t, base)
}

// TestGoldenDeterminismAcrossWorkers guards the PR 1 bit-identity invariant
// under the cancellation-aware scheduler: the marshalled predictions of the
// same corpus must be byte-identical at 1, 4 and 8 workers.
func TestGoldenDeterminismAcrossWorkers(t *testing.T) {
	m, c := trainedModel(t)
	tables := c.Tables[:12]
	var golden []byte
	for _, workers := range []int{1, 4, 8} {
		eng := New(m, WithWorkers(workers), WithMaxBatch(4))
		out, err := eng.PredictBatchCtx(context.Background(), tables)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = raw
			continue
		}
		if string(raw) != string(golden) {
			t.Fatalf("workers=%d: marshalled predictions differ from 1-worker golden", workers)
		}
	}
}
