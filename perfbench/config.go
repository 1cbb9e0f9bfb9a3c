package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/experiments"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/server"
)

var inf = math.Inf(1)

// The reference config: the reduced-scale encoder (Dim 64, Layers 2,
// Heads 4, FFN 128) and GNN (2 layers, hidden 160) of
// experiments.ReducedScale, the geometry every perf claim is made at.
func refEncoderConfig() lm.Config { return experiments.ReducedScale().Encoder }

// refModelConfig returns the reduced-scale training config with a fresh
// encoder, a fixed epoch count and early stopping disabled.
func refModelConfig(enc *lm.Encoder, seed int64, epochs int) core.Config {
	cfg := experiments.ReducedScale().Pythagoras
	cfg.Encoder = enc
	cfg.Seed = seed
	cfg.Epochs = epochs
	cfg.Patience = epochs + 1
	cfg.TrainWorkers = runtime.GOMAXPROCS(0)
	return cfg
}

// Workload sizes. They are sized for a 2-CPU machine; see README.md for
// the measurements behind them.
const (
	// How many times a run sets its workload up; setup_s is the median.
	// train's set-up takes milliseconds, so it repeats more to stay steady.
	setupReps      = 3
	trainSetupReps = 15

	// serve-hot
	serveTrainTables = 24 // tables the served model is trained on
	serveTrainEpochs = 2
	servePoolTables  = 144 // distinct tables requests draw on
	serveBatchTables = 8   // tables per /v1/predict-batch request
	serveConns       = 2   // client connections (nproc)
	warmupRequests   = 100
	tailWindow       = 100  // requests per latency window; a window supports p90
	latencyShare     = 0.6  // share of --seconds spent timing unloaded latency
	rssSliceRequests = 128  // requests per slice of the unloaded phase; peak_rss_mb is their median peak
	capacityShare    = 0.2  // share of --seconds both connections are kept busy
	soakShare        = 0.5  // share of --seconds the traced run soaks
	probeShare       = 0.07 // share of --seconds per ladder probe
	replayRequests   = 240  // requests replayed through the stages when traced

	// lake-cold
	lakeTrainTables = 32
	lakeTrainEpochs = 2
	lakeScanTables  = 128 // fresh tables per scan
	lakeBatch       = 16
	lakeConcurrency = 2
	lakeCheckTables = 8 // tables per scan re-predicted by the output check

	// train
	trainTables = 220 // the reduced SportsTables corpus
	trainEpochs = 3
	trainCheck  = 16 // held-out tables re-predicted after Save/Load
)

// serveMix is the request mix of serve-hot, indexed by the route* kinds.
var serveMix = []float64{0.70, 0.15, 0.10, 0.05}

const (
	routePredict = iota
	routePredictBatch
	routeIndex
	routeUnion
)

var routeNames = []string{"predict", "predict_batch", "index", "union"}

// Frozen serve-hot rates, in requests per second, measured on the 2-CPU
// development machine (README.md): the traced run's soak offers about 35%
// of the knee, and the ladder climbs in 5% steps from half the knee to
// about 1.3 times it.
const soakQPS = 42.0

var serveLadder = ladder(60, 1.05, 21)

func ladder(lo, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(lo*math.Pow(factor, float64(i))*10) / 10
	}
	return out
}

// latencyLimitMs is the tail limit max_rate_qps is held to: the server's
// own latency objective.
var latencyLimitMs = float64(server.DefaultSLOLatency.Milliseconds())

// firstN lists the indices 0..n-1. The served and lake models train on the
// first tables of a whole reduced corpus: training stays small, while the
// vocabulary, and so the width of the classifier head, is the whole
// corpus's and the same for every seed. Trained on its first tables
// alone, the served model's vocabulary ranged from 252 to 394 types over
// ten seeds, and every forward's head with it.
func firstN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// sportsConfig returns the reduced SportsTables generator config under a
// workload seed.
func sportsConfig(n int, seed int64) data.SportsConfig {
	c := data.ReducedSportsConfig()
	c.NumTables = n
	c.Seed = seed
	return c
}

// gitConfig returns the reduced GitTables generator config under a
// workload seed. MinSupport 1 keeps every generated table whole: a lake
// scan types what it is given.
func gitConfig(n int, seed int64) data.GitConfig {
	c := data.ReducedGitConfig()
	c.NumTables = n
	c.Seed = seed
	c.MinSupport = 1
	return c
}

// configHash identifies the encoder, model and workload configuration a
// result was measured at.
func configHash(workload string) string {
	m := experiments.ReducedScale().Pythagoras
	s := fmt.Sprintf("enc=%+v gnn=%d hidden=%d lr=%g batch=%d dropout=%g workload=%s "+
		"serve=%d/%d/%d/%d/%d/%g/%g/%v/%v/%d/%g lake=%d/%d/%d/%d/%d train=%d/%d setup=%d/%d",
		refEncoderConfig(), m.GNNLayers, m.HiddenDim, m.LearningRate, m.BatchSize, m.Dropout, workload,
		serveTrainTables, serveTrainEpochs, servePoolTables, serveBatchTables, serveConns, latencyLimitMs,
		soakQPS, serveLadder, serveMix, rssSliceRequests, capacityShare,
		lakeTrainTables, lakeTrainEpochs, lakeScanTables, lakeBatch, lakeConcurrency,
		trainTables, trainEpochs, setupReps, trainSetupReps)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
