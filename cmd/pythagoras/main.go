// Command pythagoras trains, evaluates and applies the Pythagoras semantic
// type detection model from the command line.
//
// Subcommands:
//
//	pythagoras train -data ./corpus -model model.bin
//	pythagoras eval  -data ./corpus -model model.bin
//	pythagoras predict -data ./lake -model model.bin [-table id]
//	pythagoras serve -model model.bin -addr :8080
//
// -data points at a directory of <id>.csv files with <id>.labels.json
// sidecars (as written by datagen or any conforming tool). Prediction works
// on unlabeled CSVs too.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/obs/logz"
	"github.com/sematype/pythagoras/internal/obs/slo"
	"github.com/sematype/pythagoras/internal/obs/watch"
	"github.com/sematype/pythagoras/internal/par"
	"github.com/sematype/pythagoras/internal/server"
	"github.com/sematype/pythagoras/internal/table"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		cmdTrain(os.Args[2:])
	case "eval":
		cmdEval(os.Args[2:])
	case "predict":
		cmdPredict(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pythagoras {train|eval|predict|serve} [flags]")
	os.Exit(2)
}

// encoderFlags adds the shared encoder configuration flags.
func encoderFlags(fs *flag.FlagSet) (*int, *int) {
	dim := fs.Int("dim", 64, "frozen encoder width (768 = paper scale)")
	layers := fs.Int("lm-layers", 2, "frozen encoder depth")
	return dim, layers
}

func buildEncoder(dim, layers int) *lm.Encoder {
	heads := 4
	for dim%heads != 0 {
		heads--
	}
	return lm.NewEncoder(lm.Config{
		Dim: dim, Layers: layers, Heads: heads, FFNDim: 2 * dim,
		MaxLen: 512, Buckets: 1 << 15, Seed: 20240325,
	})
}

// structuredLogger maps -log-format to a logz logger on stderr: "json"
// returns one, "text" returns nil (keep the stdlib logger), anything else
// is a flag error.
func structuredLogger(format string) *logz.Logger {
	switch format {
	case "json":
		return logz.New(os.Stderr, logz.Info)
	case "text":
		return nil
	default:
		log.Fatalf("invalid -log-format %q (want text or json)", format)
		return nil
	}
}

func loadCorpus(dir string) *data.Corpus {
	tables, err := table.LoadDir(dir)
	if err != nil {
		log.Fatalf("load corpus: %v", err)
	}
	c := &data.Corpus{Name: dir, Tables: tables}
	c.BuildVocabulary()
	return c
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dataDir := fs.String("data", "", "corpus directory (required)")
	modelPath := fs.String("model", "pythagoras-model.bin", "output model path")
	epochs := fs.Int("epochs", 150, "training epochs")
	lr := fs.Float64("lr", 1e-2, "initial learning rate (linearly decayed)")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "training worker goroutines (0 = all CPUs; results are identical at any count)")
	metrics := fs.Bool("metrics", false, "stream a JSON metrics snapshot to stdout after every epoch")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	dim, layers := encoderFlags(fs)
	fs.Parse(args)
	if *dataDir == "" {
		log.Fatal("train: -data is required")
	}
	slog := structuredLogger(*logFormat)

	c := loadCorpus(*dataDir)
	if err := c.Validate(); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	train, val, test := eval.TrainValTestSplit(len(c.Tables), rng)

	cfg := core.DefaultConfig(buildEncoder(*dim, *layers))
	cfg.Epochs = *epochs
	cfg.LearningRate = *lr
	cfg.Seed = *seed
	cfg.TrainWorkers = *workers
	cfg.Logf = log.Printf
	if slog != nil {
		cfg.Logf = slog.With("component", "train").Printf()
	}
	if *metrics {
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		obs.RegisterRuntimeMetrics(reg)
		par.RegisterMetrics(reg)
		// Piggyback on the trainer's per-epoch progress line: every time one
		// is emitted, follow it with a machine-readable snapshot on stdout.
		inner := cfg.Logf
		cfg.Logf = func(format string, args ...any) {
			inner(format, args...)
			if strings.HasPrefix(format, "pythagoras: epoch") {
				if raw, err := json.Marshal(reg.Snapshot()); err == nil {
					fmt.Println(string(raw))
				}
			}
		}
	}

	m, err := core.Train(c, train, val, cfg)
	if err != nil {
		log.Fatal(err)
	}
	split, _ := m.Evaluate(c, test)
	fmt.Printf("test weighted F1: numeric=%.3f non-numeric=%.3f overall=%.3f\n",
		split.Numeric.WeightedF1, split.NonNumeric.WeightedF1, split.Overall.WeightedF1)
	fmt.Printf("test macro F1:    numeric=%.3f non-numeric=%.3f overall=%.3f\n",
		split.Numeric.MacroF1, split.NonNumeric.MacroF1, split.Overall.MacroF1)
	if err := m.SaveFile(*modelPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model saved to %s (%d parameters)\n", *modelPath, m.Params().Count())

	// Write the drift baseline sidecar: the model's own prediction
	// distribution over its training tables, the reference `serve` compares
	// live traffic against (DESIGN.md §11).
	trainTables := make([]*table.Table, len(train))
	for i, idx := range train {
		trainTables[i] = c.Tables[idx]
	}
	sidecar := core.DriftSidecarPath(*modelPath)
	if err := core.SaveDriftBaseline(sidecar, m.ComputeDriftBaseline(trainTables)); err != nil {
		log.Fatalf("write drift baseline: %v", err)
	}
	fmt.Printf("drift baseline saved to %s\n", sidecar)
}

func cmdEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	dataDir := fs.String("data", "", "corpus directory (required)")
	modelPath := fs.String("model", "pythagoras-model.bin", "model path")
	report := fs.Int("report", 0, "print a per-class report for the top N types by support")
	confusions := fs.Int("confusions", 0, "print the top N most frequent misclassification pairs")
	dim, layers := encoderFlags(fs)
	fs.Parse(args)
	if *dataDir == "" {
		log.Fatal("eval: -data is required")
	}

	m, err := core.LoadFile(*modelPath, core.Config{Encoder: buildEncoder(*dim, *layers)})
	if err != nil {
		log.Fatal(err)
	}
	c := loadCorpus(*dataDir)
	idx := make([]int, len(c.Tables))
	for i := range idx {
		idx[i] = i
	}
	// Re-map corpus labels into the model's vocabulary.
	c.Types = m.Types()
	c.LabelIndex = map[string]int{}
	for i, st := range c.Types {
		c.LabelIndex[st] = i
	}
	split, preds, err := m.EvaluateCtx(context.Background(), c, idx, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("columns scored: %d\n", len(preds))
	fmt.Printf("weighted F1: numeric=%.3f non-numeric=%.3f overall=%.3f\n",
		split.Numeric.WeightedF1, split.NonNumeric.WeightedF1, split.Overall.WeightedF1)
	fmt.Printf("macro F1:    numeric=%.3f non-numeric=%.3f overall=%.3f\n",
		split.Numeric.MacroF1, split.NonNumeric.MacroF1, split.Overall.MacroF1)
	if *report > 0 {
		fmt.Println()
		fmt.Print(eval.Report(split.Overall, eval.ReportOptions{
			ClassNames: m.Types(), SortBySupport: true, TopK: *report,
		}))
	}
	if *confusions > 0 {
		fmt.Println("\ntop confusions (true → predicted):")
		for _, cp := range eval.TopConfusions(preds, *confusions) {
			fmt.Printf("  %3d×  %-45s → %s\n", cp.Count, m.Types()[cp.True], m.Types()[cp.Pred])
		}
	}
}

func cmdPredict(args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	dataDir := fs.String("data", "", "directory of CSVs (required)")
	modelPath := fs.String("model", "pythagoras-model.bin", "model path")
	tableID := fs.String("table", "", "predict only this table id")
	dim, layers := encoderFlags(fs)
	fs.Parse(args)
	if *dataDir == "" {
		log.Fatal("predict: -data is required")
	}

	m, err := core.LoadFile(*modelPath, core.Config{Encoder: buildEncoder(*dim, *layers)})
	if err != nil {
		log.Fatal(err)
	}
	all, err := table.LoadDir(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	var tables []*table.Table
	for _, t := range all {
		if *tableID == "" || t.ID == *tableID {
			tables = append(tables, t)
		}
	}
	// One batched forward pass over the whole directory.
	batch := infer.New(m).PredictBatch(tables)
	for i, t := range tables {
		fmt.Printf("table %s (%q):\n", t.ID, t.Name)
		for _, p := range batch[i] {
			fmt.Printf("  %-24s [%s] → %-45s (%.2f)\n", p.Header, p.Kind, p.Type, p.Confidence)
		}
	}
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelPath := fs.String("model", "pythagoras-model.bin", "model path")
	addr := fs.String("addr", ":8080", "listen address")
	minConf := fs.Float64("min-confidence", 0.3, "discovery-index confidence threshold")
	workers := fs.Int("workers", 0, "inference prepare workers (0 = NumCPU)")
	debug := fs.Bool("debug", false, "mount /debug/pprof and /debug/vars")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline, queue wait included (0 = unbounded; expiry → 504)")
	maxInflight := fs.Int("max-inflight", 64, "max concurrently processed requests; as many again may queue, the rest are shed with 429 (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget on SIGINT/SIGTERM")
	traceSample := fs.Float64("trace-sample", 0.01, "fraction of request traces kept (errored/slow traces are always kept)")
	traceBuffer := fs.Int("trace-buffer", obs.DefaultTraceBuffer, "trace ring-buffer capacity served by /v1/traces")
	traceSlow := fs.Duration("trace-slow", time.Second, "always keep traces at least this long (0 disables)")
	sloTarget := fs.Float64("slo-target", server.DefaultSLOTarget, "SLO success-ratio objective in (0,1); budget and burn rates derive from it (see /v1/slo)")
	sloLatencyMs := fs.Int("slo-latency-ms", int(server.DefaultSLOLatency/time.Millisecond), "latency-objective threshold in milliseconds: slower responses burn the latency SLO budget")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	shadowSample := fs.Float64("shadow-sample", 1, "fraction of live traffic double-scored on a shadowing candidate model (deterministic seeded sampling; see POST /v1/models)")
	modelsDir := fs.String("models-dir", "", "confine POST /v1/models checkpoint paths to this directory (empty = any readable path)")
	rescoreCkpt := fs.String("rescore-checkpoint", "", "durable cursor path for lake re-scores (POST /v1/index/rescore); empty keeps the cursor in memory only, so a crashed re-score restarts instead of resuming")
	rescoreBatch := fs.Int("rescore-batch", 16, "tables per engine batch during a lake re-score")
	watchInterval := fs.Duration("watch-interval", watch.DefaultInterval, "anomaly-watchdog evaluation period (0 disables the background loop; rules still evaluate on demand in tests)")
	flightDir := fs.String("flight-dir", "", "directory for watchdog flight records (metrics+traces+profiles captured when an alert fires); empty disables capture")
	flightMax := fs.Int("flight-max", watch.DefaultFlightMax, "on-disk flight-record ring size; oldest records are evicted beyond this")
	agreeMin := fs.Float64("shadow-agreement-min", server.DefaultShadowAgreementMin, "shadow agreement rate below which the watchdog auto-rolls-back the candidate")
	agreeWindow := fs.Duration("shadow-agreement-window", server.DefaultShadowAgreementWindow, "how long shadow agreement must stay below -shadow-agreement-min before auto-rollback")
	dim, layers := encoderFlags(fs)
	fs.Parse(args)
	slog := structuredLogger(*logFormat)

	// LoadServing resolves the checkpoint and its optional drift sidecar in
	// one step — the same path POST /v1/models uses for candidates, so boot
	// and hot-load cannot disagree about what a serving model is.
	bundle, err := core.LoadServing(*modelPath, core.Config{Encoder: buildEncoder(*dim, *layers)})
	if err != nil {
		log.Fatal(err)
	}
	m := bundle.Model
	eng := infer.New(m, infer.WithWorkers(*workers))
	eng.EnableMetrics(obs.NewRegistry())
	// The drift sidecar is optional — a model trained before baselines
	// existed still serves, just without drift gauges.
	if bundle.Drift != nil {
		eng.EnableDrift(bundle.Drift)
		log.Printf("pythagoras: drift baseline loaded from %s", core.DriftSidecarPath(*modelPath))
	} else if bundle.DriftErr != nil {
		log.Printf("pythagoras: drift baseline unusable, serving without drift telemetry: %v", bundle.DriftErr)
	}
	recorder := obs.NewTraceRecorder(obs.TraceConfig{
		SampleRate: *traceSample, SlowThreshold: *traceSlow, Buffer: *traceBuffer,
	})
	sloEng := slo.New(slo.DefaultObjectives(*sloTarget, time.Duration(*sloLatencyMs)*time.Millisecond))
	opts := []server.Option{
		server.WithLogger(log.Default()), server.WithDebug(*debug),
		server.WithRequestTimeout(*requestTimeout), server.WithMaxInflight(*maxInflight),
		server.WithTraceRecorder(recorder), server.WithSLO(sloEng),
		server.WithShadowSample(*shadowSample),
		server.WithRescoreBatch(*rescoreBatch),
		server.WithWatchInterval(*watchInterval),
		server.WithShadowAgreement(*agreeMin, *agreeWindow),
	}
	if *flightDir != "" {
		opts = append(opts, server.WithFlightDir(*flightDir, *flightMax))
	}
	if *modelsDir != "" {
		opts = append(opts, server.WithModelsDir(*modelsDir))
	}
	if *rescoreCkpt != "" {
		opts = append(opts, server.WithRescoreCheckpoint(*rescoreCkpt))
	}
	if slog != nil {
		opts = append(opts, server.WithLogz(slog.With("component", "server")))
	}
	srv := server.NewWithEngine(eng, *minConf, opts...)
	log.Printf("pythagoras serving on %s (vocabulary: %d types, debug=%v, request-timeout=%s, max-inflight=%d, slo-target=%g, slo-latency=%dms)",
		*addr, len(m.Types()), *debug, *requestTimeout, *maxInflight, *sloTarget, *sloLatencyMs)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	if *watchInterval > 0 {
		srv.Watchdog().Start(ctx)
	}
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Drain in two layers: the app server first turns traffic away and
	// waits for in-flight inference (healthz flips to draining so the load
	// balancer pulls the instance), then the HTTP server closes listeners
	// and waits for connections to go idle.
	log.Printf("pythagoras: signal received, draining (budget %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("pythagoras: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("pythagoras: http shutdown: %v", err)
	}
	log.Printf("pythagoras: shutdown complete")
}
