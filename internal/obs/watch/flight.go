// The flight recorder: when a rule fires, the watchdog snapshots the
// evidence an operator needs to diagnose the incident after the fact —
// metrics, the matching sampled traces, goroutine and heap profiles, and
// the CPU spend of the window that tripped the rule — and writes it as one
// JSON document into a size-bounded on-disk ring. Writes are atomic
// (temp + fsync + rename, the same discipline as the re-score checkpoint):
// a crash mid-capture leaves a stray *.tmp file that the next process
// ignores, never a torn record.
package watch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/sematype/pythagoras/internal/fsutil"
	"github.com/sematype/pythagoras/internal/obs"
)

// DefaultFlightMax is the on-disk ring size when OpenFlightDir gets max < 1.
const DefaultFlightMax = 32

// maxProfileBytes truncates each embedded text profile — a flight record is
// evidence, not an archive, and a runaway goroutine dump must not balloon
// the ring.
const maxProfileBytes = 256 << 10

// flightPrefix/flightSuffix frame every record file:
// flight-<seq>-<rule>.json. Anything else in the directory (notably the
// *.tmp files an interrupted write leaves) is ignored by List and startup.
const (
	flightPrefix = "flight-"
	flightSuffix = ".json"
)

// CPUDelta is the process CPU spend between the two watchdog ticks
// bracketing the capture — the cheap, always-on stand-in for a CPU profile
// (a blocking pprof CPU capture would stall the tick loop for seconds).
type CPUDelta struct {
	// WindowSeconds is the wall-clock span of the delta (one tick interval
	// in steady state).
	WindowSeconds float64 `json:"window_seconds"`
	// ProcessSeconds is total CPU consumed by the process over the window.
	ProcessSeconds float64 `json:"process_seconds"`
	// GCSeconds is the GC's share of that spend.
	GCSeconds float64 `json:"gc_seconds"`
}

// FlightRecord is one captured evidence bundle, served at
// GET /v1/flight/{id}.
type FlightRecord struct {
	ID        string    `json:"id"`
	Rule      string    `json:"rule"`
	Time      time.Time `json:"time"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	// Metrics is the full registry snapshot at capture time.
	Metrics any `json:"metrics,omitempty"`
	// Traces are the recorder's sampled traces at capture time — the slow
	// or errored requests of the window that tripped the rule.
	Traces []obs.Trace `json:"traces,omitempty"`
	// Goroutines is the goroutine count; the profiles are pprof debug=1
	// text dumps, truncated at maxProfileBytes.
	Goroutines       int      `json:"goroutines"`
	GoroutineProfile string   `json:"goroutine_profile,omitempty"`
	HeapProfile      string   `json:"heap_profile,omitempty"`
	CPU              CPUDelta `json:"cpu"`
}

// fillProfiles attaches the point-in-time runtime evidence.
func (r *FlightRecord) fillProfiles() {
	r.Goroutines = runtime.NumGoroutine()
	r.GoroutineProfile = profileText("goroutine")
	r.HeapProfile = profileText("heap")
}

func profileText(name string) string {
	p := pprof.Lookup(name)
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	if buf.Len() > maxProfileBytes {
		return buf.String()[:maxProfileBytes] + "\n... truncated ..."
	}
	return buf.String()
}

// cpuSample is one reading of the runtime's cumulative CPU clocks.
type cpuSample struct {
	at      time.Time
	total   float64
	gc      float64
	hasProc bool
}

// cpuMetricNames are the runtime/metrics keys behind CPUDelta.
var cpuMetricNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readCPUSample(now time.Time) cpuSample {
	samples := make([]metrics.Sample, len(cpuMetricNames))
	for i, n := range cpuMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s := cpuSample{at: now}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.total, s.hasProc = samples[0].Value.Float64(), true
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.gc = samples[1].Value.Float64()
	}
	return s
}

// advanceCPU replaces the previous tick's CPU sample with a fresh one and
// returns the delta between them. Called once per tick, before rules run.
func (w *Watchdog) advanceCPU(now time.Time) CPUDelta {
	cur := readCPUSample(now)
	prev := w.cpu
	w.cpu = cur
	d := CPUDelta{WindowSeconds: cur.at.Sub(prev.at).Seconds()}
	if cur.hasProc && prev.hasProc {
		d.ProcessSeconds = cur.total - prev.total
		d.GCSeconds = cur.gc - prev.gc
	}
	return d
}

// FlightDir is the size-bounded on-disk flight-record ring. Records are
// numbered monotonically; when the ring exceeds max, the oldest files are
// evicted. All methods are safe for concurrent use.
type FlightDir struct {
	mu  sync.Mutex
	dir string
	max int
	seq uint64 // next record sequence number
}

// OpenFlightDir opens (creating if needed) a flight-record directory.
// Existing records are retained and numbering continues after the highest
// present; stray temp files from an interrupted capture are ignored (and
// cleaned up, since they can never be completed).
func OpenFlightDir(dir string, max int) (*FlightDir, error) {
	if max < 1 {
		max = DefaultFlightMax
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("watch: open flight dir: %w", err)
	}
	f := &FlightDir{dir: dir, max: max}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("watch: open flight dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(dir, e.Name())) // torn capture, unrecoverable
			continue
		}
		if seq, ok := parseFlightSeq(e.Name()); ok && seq >= f.seq {
			f.seq = seq + 1
		}
	}
	return f, nil
}

// parseFlightSeq extracts the sequence number from a record file name,
// rejecting anything that does not match flight-<seq>-<rule>.json exactly.
func parseFlightSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, flightPrefix) || !strings.HasSuffix(name, flightSuffix) {
		return 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, flightPrefix), flightSuffix)
	numEnd := strings.IndexByte(body, '-')
	if numEnd < 0 {
		numEnd = len(body)
	}
	seq, err := strconv.ParseUint(body[:numEnd], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// sanitizeRule maps a rule name into a filename-safe slug.
func sanitizeRule(name string) string {
	var b strings.Builder
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "rule"
	}
	return b.String()
}

// Save assigns the record its ID, writes it atomically, and evicts the
// oldest records beyond the ring bound.
func (f *FlightDir) Save(rec *FlightRecord) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := fmt.Sprintf("%s%08d-%s", flightPrefix, f.seq, sanitizeRule(rec.Rule))
	rec.ID = id
	data, err := json.Marshal(rec)
	if err != nil {
		return "", fmt.Errorf("watch: encode flight record: %w", err)
	}
	path := filepath.Join(f.dir, id+flightSuffix)
	if err := fsutil.WriteFile(path, ".flight-*.tmp", 0o600, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return "", fmt.Errorf("watch: write flight record: %w", err)
	}
	f.seq++
	f.evictLocked()
	return id, nil
}

// evictLocked removes the oldest records beyond max. Caller holds f.mu.
func (f *FlightDir) evictLocked() {
	names := f.recordNamesLocked()
	for len(names) > f.max {
		_ = os.Remove(filepath.Join(f.dir, names[0]+flightSuffix))
		names = names[1:]
	}
}

// recordNamesLocked lists record IDs oldest first. Caller holds f.mu.
func (f *FlightDir) recordNamesLocked() []string {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseFlightSeq(e.Name()); ok {
			names = append(names, strings.TrimSuffix(e.Name(), flightSuffix))
		}
	}
	sort.Strings(names) // zero-padded seq: lexicographic == chronological
	return names
}

// FlightInfo is one record's directory entry, served at GET /v1/flight.
type FlightInfo struct {
	ID    string    `json:"id"`
	Rule  string    `json:"rule"`
	Time  time.Time `json:"time"`
	Bytes int64     `json:"bytes"`
}

// List returns the ring's records, newest first.
func (f *FlightDir) List() []FlightInfo {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	names := f.recordNamesLocked()
	f.mu.Unlock()
	infos := make([]FlightInfo, 0, len(names))
	for i := len(names) - 1; i >= 0; i-- {
		id := names[i]
		info := FlightInfo{ID: id}
		if fi, err := os.Stat(filepath.Join(f.dir, id+flightSuffix)); err == nil {
			info.Bytes = fi.Size()
		}
		// Rule and fire time are cheap to recover from the name and file;
		// decode lazily only for the header fields.
		if rec, err := f.Load(id); err == nil {
			info.Rule, info.Time = rec.Rule, rec.Time
		}
		infos = append(infos, info)
	}
	return infos
}

// Load reads one record by ID. The ID must name a record file exactly —
// anything path-like is rejected, so a request can never escape the ring
// directory.
func (f *FlightDir) Load(id string) (*FlightRecord, error) {
	if f == nil {
		return nil, os.ErrNotExist
	}
	if _, ok := parseFlightSeq(id + flightSuffix); !ok || filepath.Base(id) != id {
		return nil, fmt.Errorf("watch: invalid flight record id %q: %w", id, os.ErrNotExist)
	}
	data, err := os.ReadFile(filepath.Join(f.dir, id+flightSuffix))
	if err != nil {
		return nil, err
	}
	var rec FlightRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("watch: decode flight record %q: %w", id, err)
	}
	return &rec, nil
}
