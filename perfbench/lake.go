package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/discovery"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/rescore"
	"github.com/sematype/pythagoras/internal/table"
)

// lakeRig is lake-cold's set-up: a model trained on a GitTables-shaped
// corpus (so its head spans the Git type space) and its engine.
type lakeRig struct {
	enc *lm.Encoder
	eng *infer.Engine
}

func setupLake(seed int64) (*lakeRig, error) {
	enc := lm.NewEncoder(refEncoderConfig())
	corpus := data.GenerateGitTables(gitConfig(data.ReducedGitConfig().NumTables, seed*1000+11))
	model, err := core.TrainCtx(context.Background(), corpus, firstN(lakeTrainTables), nil, refModelConfig(enc, seed, lakeTrainEpochs))
	if err != nil {
		return nil, fmt.Errorf("train lake model: %w", err)
	}
	return &lakeRig{enc: enc, eng: infer.New(model)}, nil
}

// lakeTables generates scan number i's lake: fresh GitTables-shaped tables
// from a seed no other scan and not the training corpus uses.
func lakeTables(seed int64, i int) []*table.Table {
	return data.GenerateGitTables(gitConfig(lakeScanTables, seed*1000+100+int64(i))).Tables
}

// timedScorer wraps the engine as the driver's rescore.Scorer and times
// every batch call, under an infer.predict_batch span when traced.
type timedScorer struct {
	eng    *infer.Engine
	tr     *tracer
	parent int   // the scan's span
	req    int64 // the scan's number, shared by its spans

	mu     sync.Mutex
	durs   []float64 // ms per call
	tables int
}

func (s *timedScorer) PredictBatchCtx(ctx context.Context, ts []*table.Table) ([][]core.ColumnPrediction, error) {
	id := s.tr.begin("infer.predict_batch", s.parent, s.req)
	t0 := time.Now()
	out, err := s.eng.PredictBatchCtx(ctx, ts)
	d := time.Since(t0)
	s.tr.end(id)
	s.mu.Lock()
	s.durs = append(s.durs, float64(d)/1e6)
	s.tables += len(ts)
	s.mu.Unlock()
	return out, err
}

// scan is one completed re-score of a fresh lake.
type scan struct {
	tables []*table.Table
	index  *discovery.TypeIndex
	wall   time.Duration
	traced bool
}

// runScan re-scores a fresh lake with a rescore.Driver, checkpointing to
// dir as the server's re-score does.
func (r *lakeRig) runScan(tr *tracer, sc *timedScorer, ts []*table.Table, dir string, i int) (scan, error) {
	lake := rescore.NewLake()
	for _, t := range ts {
		lake.Put(t)
	}
	idx := discovery.NewSwapIndex(0)
	d := rescore.New(lake, sc, idx, rescore.Config{
		ModelID:        "perfbench",
		BatchSize:      lakeBatch,
		Concurrency:    lakeConcurrency,
		CheckpointPath: filepath.Join(dir, fmt.Sprintf("scan-%d.ckpt", i)),
	})
	root := tr.begin("rescore.scan", -1, int64(i))
	sc.tr, sc.parent, sc.req = tr, root, int64(i)
	t0 := time.Now()
	err := d.Run(context.Background())
	wall := time.Since(t0)
	tr.end(root)
	if err != nil {
		return scan{}, fmt.Errorf("scan %d: %w", i, err)
	}
	if p := d.Progress(); p.State != "done" || p.Done != len(ts) {
		return scan{}, fmt.Errorf("scan %d ended %s at %d of %d tables", i, p.State, p.Done, len(ts))
	}
	return scan{tables: ts, index: idx.Current(), wall: wall, traced: tr != nil}, nil
}

func runLakeCold(b *bench) error {
	rig, err := timeSetups(b, setupReps, func() (*lakeRig, error) { return setupLake(b.seed) }, nil)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.workdir, "lake-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Scans repeat over fresh lakes until the measured time is used; each
	// lake is generated before its scan's clock starts.
	sc := &timedScorer{eng: rig.eng}
	var scans []scan
	mw := startMemWindow()
	rig.enc.ResetCacheStats()
	start, budget := time.Now(), time.Duration(b.seconds*float64(time.Second))
	var last time.Duration // the previous scan's length, to stop within budget
	for i := 0; len(scans) < 3 || time.Since(start)+last <= budget; i++ {
		ts := lakeTables(b.seed, i)
		// The traced run alternates untraced and traced scans, so the
		// tracing overhead is measured in-run.
		var tr *tracer
		if b.tr != nil && i%2 == 1 {
			tr = b.tr
		}
		s, err := rig.runScan(tr, sc, ts, dir, i)
		if err != nil {
			return err
		}
		scans = append(scans, s)
		last = s.wall
	}
	cs := rig.enc.CacheStats()

	var rates, walls, bare, traced []float64
	for _, s := range scans {
		rates = append(rates, float64(len(s.tables))/s.wall.Seconds())
		w := float64(s.wall) / 1e6
		walls = append(walls, w)
		if s.traced {
			traced = append(traced, w)
		} else {
			bare = append(bare, w)
		}
	}
	lat := summarize(append([]float64(nil), sc.durs...), 0)
	b.info("%d scans of %d tables, %d batches: median %.1f tables/s; batch p50 %.1f ms, p%g %.1f ms",
		len(scans), lakeScanTables, lat.N, median(append([]float64(nil), rates...)), lat.P50, lat.Q*100, lat.TailP)
	b.info("text cache hits %d misses %d, evicted %d", cs.TextHits, cs.TextMisses, cs.EntriesEvicted())

	checkScans(b, rig.eng, scans)
	if b.tr == nil {
		b.set("throughput_per_s", median(rates))
		b.set("latency_p50_ms", lat.P50)
		b.set("latency_tail_ms", lat.TailP)
		return nil
	}

	mw.report(b)
	b.set("lm.text_cache_hit_ratio", ratio(cs.TextHits, cs.TextHits+cs.TextMisses))
	b.set("lm.token_cache_hit_ratio", ratio(cs.TokenHits, cs.TokenHits+cs.TokenMisses))
	b.set("lm.cache_evictions", float64(cs.EntriesEvicted()))
	b.set("obs.trace_overhead_share", median(traced)/median(bare)-1)
	b.set("infer.tables_per_call", float64(sc.tables)/float64(len(sc.durs)))
	b.set("infer.predict_batch_ms_p50", quantile(sc.durs, 0.5))
	b.set("infer.predict_batch_ms_p99", quantile(sc.durs, 0.99))
	b.set("rescore.scan_ms_p50", median(walls))
	var busy, wall float64
	for _, d := range sc.durs {
		busy += d
	}
	for _, w := range walls {
		wall += w
	}
	b.set("rescore.scorer_busy_share", busy/(wall*lakeConcurrency))

	// Stage split: one more fresh lake, batch by batch as the driver hands
	// them to the engine, through the stage functions on a cold cache.
	var split stageSplit
	fresh := lakeTables(b.seed, len(scans))
	for lo := 0; lo < len(fresh); lo += lakeBatch {
		hi := min(lo+lakeBatch, len(fresh))
		got := driveStages(b.tr, rig.eng.Model(), fresh[lo:hi], rig.eng.Workers(), rig.eng.MaxBatch(), int64(1_000_000+lo), &split)
		want := rig.eng.PredictBatch(fresh[lo:hi])
		b.attempted++
		if !reflect.DeepEqual(got, want) {
			b.failed++
			b.info("stage split of batch at %d differs from the engine", lo)
		}
	}
	reportStages(b, &split)

	final := scans[len(scans)-1]
	ids := make([]string, len(final.tables))
	for i, t := range final.tables {
		ids[i] = t.ID
	}
	return reportDiscovery(b, final.index, ids)
}

// checkScans verifies each scan's index after the measured phase: every
// table was indexed, and a sample of tables carries exactly the refs that
// Engine.Predict followed by TypeIndex.AddPredictions gives. Each scanned
// table counts as attempted; a missing or differing one as failed.
func checkScans(b *bench, eng *infer.Engine, scans []scan) {
	for i, s := range scans {
		b.attempted += len(s.tables)
		got := refsByTable(s.index)
		if len(got) != len(s.tables) {
			b.failed += len(s.tables) - len(got)
			b.info("scan %d indexed %d of %d tables", i, len(got), len(s.tables))
		}
		step := max(1, len(s.tables)/lakeCheckTables)
		for k := 0; k < len(s.tables); k += step {
			t := s.tables[k]
			want := discovery.NewTypeIndex(s.index.MinConfidence())
			want.AddPredictions(t, eng.Predict(t))
			if !reflect.DeepEqual(got[t.ID], refsByTable(want)[t.ID]) {
				b.failed++
				b.info("scan %d: table %s differs from Engine.Predict + AddPredictions", i, t.ID)
			}
		}
	}
}

// refsByTable groups an index's column refs by table, in column order.
func refsByTable(ix *discovery.TypeIndex) map[string][]discovery.ColumnRef {
	out := map[string][]discovery.ColumnRef{}
	for _, ty := range ix.Types() {
		for _, r := range ix.Columns(ty) {
			out[r.TableID] = append(out[r.TableID], r)
		}
	}
	for _, refs := range out {
		sort.Slice(refs, func(i, j int) bool { return refs[i].ColIndex < refs[j].ColIndex })
	}
	return out
}
