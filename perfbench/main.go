// Command perfbench is the repository's performance benchmark: one run
// measures one workload at the reference model config, checks its
// outputs, and prints every metric by name and unit. See README.md.
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones. Lines before it, each
// starting with '#', carry the record header and details.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type unit struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run (README.md defines each per workload).
var endToEnd = []unit{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

// perLayer are the traced run's metrics of single layers. A layer a
// workload does not exercise reports 0.
var perLayer = []unit{
	{"core.forward_ms_per_chunk", "ms"},
	{"core.forward_us_per_target", "us"},
	{"core.forward_alloc_kb_per_chunk", "KB"},
	{"core.forward_self_share", "share"},
	{"core.union_us_per_chunk", "us"},
	{"core.decode_us_per_chunk", "us"},
	{"lm.encode_ms_per_table", "ms"},
	{"lm.alloc_kb_per_table", "KB"},
	{"lm.encode_self_share", "share"},
	{"lm.text_cache_hit_ratio", "ratio"},
	{"lm.token_cache_hit_ratio", "ratio"},
	{"lm.cache_evictions", "count"},
	{"graph.build_us_per_table", "us"},
	{"graph.nodes_per_table", "count"},
	{"graph.edges_per_table", "count"},
	{"graph.alloc_kb_per_table", "KB"},
	{"infer.tables_per_call", "count"},
	{"infer.predict_batch_ms_p50", "ms"},
	{"infer.predict_batch_ms_p99", "ms"},
	{"server.route_predict_p50_ms", "ms"},
	{"server.route_predict_p99_ms", "ms"},
	{"server.route_predict_batch_p50_ms", "ms"},
	{"server.route_predict_batch_p99_ms", "ms"},
	{"server.route_index_p50_ms", "ms"},
	{"server.route_index_p99_ms", "ms"},
	{"server.route_union_p50_ms", "ms"},
	{"server.route_union_p99_ms", "ms"},
	{"server.shed_share", "share"},
	{"loadgen.conn_wait_ms_p50", "ms"},
	{"loadgen.conn_wait_ms_p99", "ms"},
	{"loadgen.send_lag_ms_p99", "ms"},
	{"rescore.scan_ms_p50", "ms"},
	{"rescore.scorer_busy_share", "share"},
	{"discovery.query_us_p50", "us"},
	{"discovery.index_columns", "count"},
	{"train.prepare_s", "s"},
	{"train.fb_ms_p50", "ms"},
	{"train.merge_ms_p50", "ms"},
	{"train.val_s", "s"},
	{"train.steps", "count"},
	{"train.numeric_wf1", "f1"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"obs.trace_overhead_share", "share"},
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(*bench) error{
	"serve-hot": runServeHot,
	"lake-cold": runLakeCold,
	"train":     runTrain,
}

// bench is the state of one run: its inputs, its tracer (nil when
// untraced) and what it has measured so far.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	workdir  string
	tr       *tracer

	metrics   map[string]float64
	attempted int
	failed    int
}

// info prints a detail line ahead of the result.
func (b *bench) info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

func main() {
	workload := flag.String("workload", "", "workload: serve-hot, lake-cold or train")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files and traces")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{workload: *workload, seed: *seed, seconds: *seconds, workdir: *workdir,
		metrics: map[string]float64{}}
	if *trace == 1 {
		b.tr = newTracer()
	}
	b.info("perfbench workload=%s seed=%d seconds=%g trace=%d go=%s gomaxprocs=%d numcpu=%d config=%s",
		b.workload, b.seed, b.seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		configHash(b.workload))

	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if _, ok := b.metrics["peak_rss_mb"]; !ok {
		b.set("peak_rss_mb", peakRSSMB())
	}

	want := endToEnd
	if b.tr != nil {
		want = perLayer
		path := filepath.Join(b.workdir, fmt.Sprintf("trace-%s-%d.jsonl", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		b.info("spans written to %s", path)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]map[string]any{}}
	for _, m := range want {
		v, ok := b.metrics[m.name]
		if !ok && b.tr == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", b.workload, m.name)
			os.Exit(1)
		}
		out.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	b.printDetails(want)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printDetails lists measured values that are not part of the result
// (everything outside want), so the untraced run still shows its
// per-phase figures.
func (b *bench) printDetails(want []unit) {
	in := map[string]bool{}
	for _, m := range want {
		in[m.name] = true
	}
	var names []string
	for name := range b.metrics {
		if !in[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b.info("%s = %g", name, b.metrics[name])
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs,
// falling back to the Go runtime's total OS memory where procfs is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS counter (best effort: where procfs does not allow the reset,
// peakRSSMB keeps covering the whole process).
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// memWindow records runtime counters over a measured phase.
type memWindow struct{ start runtime.MemStats }

// startMemWindow opens the measured phase with resetPeakRSS, so
// peak_rss_mb covers the measured phase and not set-up (which setup_s
// covers).
func startMemWindow() *memWindow {
	resetPeakRSS()
	w := &memWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// report sets the runtime.* metrics for the window.
func (w *memWindow) report(b *bench) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	b.set("runtime.alloc_mb", float64(end.TotalAlloc-w.start.TotalAlloc)/(1<<20))
	b.set("runtime.gc_cycles", float64(end.NumGC-w.start.NumGC))
	b.set("runtime.gc_pause_ms_total", float64(end.PauseTotalNs-w.start.PauseTotalNs)/1e6)
}

// timeSetups runs setup reps times, records the median wall time as
// setup_s, and keeps the last result. Each repetition builds everything
// afresh (a new encoder, so no cache carries over); release, when set,
// frees a repetition's result before the next one starts.
func timeSetups[T any](b *bench, reps int, setup func() (T, error), release func(T)) (T, error) {
	var out T
	durs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && release != nil {
			release(out)
		}
		var zero T
		out = zero // let the previous repetition's state be collected
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return out, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		out = v
	}
	b.set("setup_s", median(durs))
	b.info("setup_s each = %v", durs)
	return out, nil
}
