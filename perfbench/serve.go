package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/discovery"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/server"
	"github.com/sematype/pythagoras/internal/table"
)

// serveRig is serve-hot's set-up: a trained model behind an in-process
// server on loopback, its request pool already run through once (so the
// encoder cache is warm) and indexed, and the expected response of every
// request the schedule can draw.
type serveRig struct {
	enc      *lm.Encoder
	eng      *infer.Engine
	srv      *server.Server
	httpSrv  *http.Server
	base     string
	pool     []*table.Table // as the server parses them
	reqs     []server.TableRequest
	bodies   [][]byte // /v1/predict and /v1/index body per pool table
	batches  [][]byte // /v1/predict-batch body per first pool table
	expected [][]core.ColumnPrediction
	union    [][]discovery.UnionCandidate // expected /v1/union per pool table
}

func poolID(k int) string { return "pool-" + strconv.Itoa(k) }

func setupServe(seed int64) (*serveRig, error) {
	r := &serveRig{enc: lm.NewEncoder(refEncoderConfig())}
	corpus := data.GenerateSportsTables(sportsConfig(trainTables, seed*1000+1))
	model, err := core.TrainCtx(context.Background(), corpus, firstN(serveTrainTables), nil, refModelConfig(r.enc, seed, serveTrainEpochs))
	if err != nil {
		return nil, fmt.Errorf("train served model: %w", err)
	}
	r.eng = infer.New(model)

	for k, t := range data.GenerateSportsTables(sportsConfig(servePoolTables, seed*1000+2)).Tables {
		tr := server.TableRequest{ID: poolID(k), Name: t.Name}
		for _, c := range t.Columns {
			tr.Columns = append(tr.Columns, server.ColumnRequest{Header: c.Header, Values: c.ValueStrings(0)})
		}
		r.reqs = append(r.reqs, tr)
		r.pool = append(r.pool, parseRequest(tr))
	}
	for k := range r.reqs {
		br := server.BatchRequest{}
		for _, j := range batchTables(k) {
			br.Tables = append(br.Tables, r.reqs[j])
		}
		r.bodies = append(r.bodies, mustJSON(r.reqs[k]))
		r.batches = append(r.batches, mustJSON(br))
	}
	// One pass over the pool warms the encoder cache, as a long-lived
	// server's would be, and gives the reference output of every table.
	r.expected = r.eng.PredictBatch(r.pool)

	r.srv = server.NewWithEngine(r.eng, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.base = "http://" + ln.Addr().String()
	r.httpSrv = &http.Server{Handler: r.srv}
	go r.httpSrv.Serve(ln)

	client := newClient()
	defer client.CloseIdleConnections()
	for k := range r.pool {
		if err := r.send(context.Background(), client, arrival{Kind: routeIndex, Table: k}); err != nil {
			r.close()
			return nil, fmt.Errorf("index pool table %d: %w", k, err)
		}
	}
	ix := r.srv.Index()
	for k := range r.pool {
		cands, err := ix.UnionCandidates(poolID(k), 10)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("union of pool table %d: %w", k, err)
		}
		r.union = append(r.union, cands)
	}
	return r, nil
}

// close stops the HTTP listener and drains the server.
func (r *serveRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.httpSrv.Shutdown(ctx)
	r.srv.Shutdown(ctx)
}

// parseRequest builds the table the server builds from a request: a column
// whose every value parses as a float is numeric. The reference output is
// computed on this table, so it is the server's input bit for bit.
func parseRequest(tr server.TableRequest) *table.Table {
	t := &table.Table{Name: tr.Name, ID: tr.ID}
	for _, c := range tr.Columns {
		col := &table.Column{Header: c.Header}
		nums := make([]float64, 0, len(c.Values))
		numeric := len(c.Values) > 0
		for _, v := range c.Values {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				numeric = false
				break
			}
			nums = append(nums, f)
		}
		if numeric {
			col.Kind, col.NumValues = table.KindNumeric, nums
		} else {
			col.Kind, col.TextValues = table.KindText, c.Values
		}
		t.Columns = append(t.Columns, col)
	}
	return t
}

// newClient returns a client that holds at most one connection, so a
// sender with one client per connection index never opens more than its
// connection budget.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// batchTables lists the pool tables of a predict-batch request drawing on
// table k.
func batchTables(k int) []int {
	out := make([]int, serveBatchTables)
	for i := range out {
		out[i] = (k + i) % servePoolTables
	}
	return out
}

// engineTables is how many tables a request hands the inference engine.
func engineTables(kind int) int {
	switch kind {
	case routePredict, routeIndex:
		return 1
	case routePredictBatch:
		return serveBatchTables
	}
	return 0
}

var errMismatch = errors.New("response differs from the in-process engine output")

// send performs one request and checks its body against the expected
// output: columns bit for bit for predictions, candidates for unions.
func (r *serveRig) send(ctx context.Context, c *http.Client, a arrival) error {
	var (
		method = http.MethodPost
		path   string
		body   io.Reader
	)
	switch a.Kind {
	case routePredict:
		path, body = "/v1/predict", bytes.NewReader(r.bodies[a.Table])
	case routeIndex:
		path, body = "/v1/index", bytes.NewReader(r.bodies[a.Table])
	case routePredictBatch:
		path, body = "/v1/predict-batch", bytes.NewReader(r.batches[a.Table])
	case routeUnion:
		method, path = http.MethodGet, "/v1/union?k=10&table="+poolID(a.Table)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, body)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	switch a.Kind {
	case routePredict, routeIndex:
		var pr server.PredictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			return err
		}
		if !samePrediction(pr, r.expected[a.Table]) || pr.Indexed != (a.Kind == routeIndex) {
			return errMismatch
		}
	case routePredictBatch:
		var br server.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			return err
		}
		ks := batchTables(a.Table)
		if len(br.Results) != len(ks) {
			return errMismatch
		}
		for i, k := range ks {
			if !samePrediction(br.Results[i], r.expected[k]) {
				return errMismatch
			}
		}
	case routeUnion:
		var ur struct {
			Table      string
			Candidates []discovery.UnionCandidate
		}
		if err := json.Unmarshal(raw, &ur); err != nil {
			return err
		}
		if ur.Table != poolID(a.Table) || !reflect.DeepEqual(ur.Candidates, r.union[a.Table]) {
			return errMismatch
		}
	}
	return nil
}

// samePrediction compares a response with engine predictions, confidences
// bit for bit.
func samePrediction(pr server.PredictResponse, want []core.ColumnPrediction) bool {
	if len(pr.Columns) != len(want) {
		return false
	}
	for i, c := range pr.Columns {
		w := want[i]
		if c.Header != w.Header || c.Kind != w.Kind.String() || c.Type != w.Type ||
			math.Float64bits(c.Confidence) != math.Float64bits(w.Confidence) {
			return false
		}
	}
	return true
}

// runPhase offers n requests at rate through serveConns connections and
// returns the samples. With a tracer, each request gets a root span from
// its due time, a loadgen.conn_wait child up to the moment a connection
// took it, and a server.<route> child for the HTTP exchange.
func (r *serveRig) runPhase(tr *tracer, seed int64, rate float64, n int) []sample {
	sched := poissonSchedule(seed, rate, n, serveMix, servePoolTables)
	clients := make([]*http.Client, serveConns)
	for i := range clients {
		clients[i] = newClient()
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	ss := openLoop(context.Background(), sched, serveConns, func(ctx context.Context, conn int, a arrival) error {
		return r.send(ctx, clients[conn], a)
	})
	if tr != nil {
		for i, s := range ss {
			req := int64(i)
			root := tr.record("request", s.Due, s.End, -1, req)
			tr.record("loadgen.conn_wait", s.Due, s.Start, root, req)
			tr.record("server."+routeNames[s.Arrival.Kind], s.Start, s.End, root, req)
		}
	}
	return ss
}

func countFailures(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.Err != nil {
			n++
		}
	}
	return n
}

func runServeHot(b *bench) error {
	rig, err := timeSetups(b, setupReps, func() (*serveRig, error) { return setupServe(b.seed) }, (*serveRig).close)
	if err != nil {
		return err
	}
	defer rig.close()

	// A warm-up at the soak rate lets the engine's tape pools and the
	// connections settle before anything is timed. Its requests are
	// checked like every other.
	warm := rig.runPhase(nil, b.seed*7919, soakQPS, warmupRequests)
	b.attempted += len(warm)
	b.failed += countFailures(warm)

	mw := startMemWindow()
	rig.enc.ResetCacheStats()
	if b.tr != nil {
		return rig.runTraced(b, mw)
	}

	// Unloaded latency: the request mix over one connection, back to back.
	// Under open-loop load, queueing amplifies any swing in CPU speed in
	// the tail (README.md), so latency is timed without queueing and load
	// is left to the ladder.
	//
	// The phase runs in slices of rssSliceRequests requests. Each starts,
	// while nothing is in flight, with the engine's tape pool emptied and
	// the peak-RSS counter reset, and peak_rss_mb is the median peak of the
	// whole slices. Pooled inference tapes keep a buffer for every shape
	// they have seen until two GCs pass them unused, so one peak over the
	// whole run grows with whatever the pool happened to keep, and it swung
	// by a third between runs. A slice of fixed work from an empty pool is
	// repeatable, and does not depend on how fast the machine runs.
	sched := poissonSchedule(b.seed*7919+1, soakQPS, 1<<16, serveMix, servePoolTables)
	client := newClient()
	deadline := time.Now().Add(time.Duration(latencyShare * b.seconds * float64(time.Second)))
	var (
		cl    []sample
		peaks []float64
	)
	for time.Now().Before(deadline) && len(cl)+rssSliceRequests <= len(sched) {
		runtime.GC() // with resetPeakRSS's own GC, this empties the tape pool
		resetPeakRSS()
		part := closedLoop(context.Background(), sched[len(cl):len(cl)+rssSliceRequests], time.Until(deadline),
			func(ctx context.Context, _ int, a arrival) error { return rig.send(ctx, client, a) })
		if len(part) == rssSliceRequests || len(peaks) == 0 {
			peaks = append(peaks, peakRSSMB())
		}
		cl = append(cl, part...)
	}
	client.CloseIdleConnections()
	b.info("unloaded peak RSS per slice, MB: %.1f", peaks)
	b.set("peak_rss_mb", median(peaks))
	b.attempted += len(cl)
	b.failed += countFailures(cl)
	lp := summarizePhase(0, cl)
	q, wt := windowedTail(cl, tailWindow)
	b.info("unloaded: %d requests, p50 %.2f ms, p%g %.2f ms; windows of %d: median p%g %.2f ms",
		lp.Lat.N, lp.Lat.P50, lp.Lat.Q*100, lp.Lat.TailP, tailWindow, q*100, wt)
	b.set("latency_p50_ms", lp.Lat.P50)
	b.set("latency_tail_ms", wt)

	// Capacity: both connections kept busy for capacityShare × --seconds.
	// One long phase averages over the machine's swings in speed, which
	// decided the completion rate of a single short probe past the knee.
	clients := make([]*http.Client, serveConns)
	for i := range clients {
		clients[i] = newClient()
	}
	sat := saturate(context.Background(), poissonSchedule(b.seed*7919+3, soakQPS, 1<<16, serveMix, servePoolTables),
		serveConns, time.Duration(capacityShare*b.seconds*float64(time.Second)),
		func(ctx context.Context, conn int, a arrival) error { return rig.send(ctx, clients[conn], a) })
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	b.attempted += len(sat)
	b.failed += countFailures(sat)
	cp := summarizePhase(0, sat)
	b.info("capacity: %d requests over %d connections, %.1f/s, p50 %.2f ms", cp.Lat.N, serveConns, cp.Achieved, cp.Lat.P50)
	b.set("throughput_per_s", cp.Achieved)

	// The ladder, by bisection.
	probe := func(rate float64) phase {
		n := int(math.Round(probeShare * b.seconds * rate))
		ss := rig.runPhase(nil, b.seed*7919+int64(rate*10), rate, n)
		b.attempted += len(ss)
		b.failed += countFailures(ss)
		p := summarizePhase(rate, ss)
		b.info("ladder rung %g/s: p50 %.2f ms, p%g %.2f ms, achieved %.1f/s, backlog=%v, failures=%d, pass=%v",
			rate, p.Lat.P50, p.Lat.Q*100, p.Lat.TailP, p.Achieved, p.Backlog, p.Lat.Failures, p.meets(latencyLimitMs))
		return p
	}
	resetPeakRSS()
	rung, _ := maxRate(serveLadder, probe, latencyLimitMs)
	if rung < 0 {
		b.info("no ladder rung meets the %g ms limit; max_rate_qps is below %g/s", latencyLimitMs, serveLadder[0])
		b.set("max_rate_qps", 0)
	} else {
		b.set("max_rate_qps", serveLadder[rung])
	}
	b.info("ladder peak RSS %.1f MB", peakRSSMB())
	mw.report(b)
	return nil
}

// runTraced is serve-hot's traced run: an open-loop soak at soakQPS, in
// two halves of the same length, the first untraced so the tracing
// overhead is measured in-run, then the per-layer report.
func (r *serveRig) runTraced(b *bench, mw *memWindow) error {
	n := int(math.Round(soakShare * b.seconds * soakQPS / 2))
	bare := r.runPhase(nil, b.seed*7919+1, soakQPS, n)
	soak := r.runPhase(b.tr, b.seed*7919+2, soakQPS, n)
	pb, pt := summarizePhase(soakQPS, bare), summarizePhase(soakQPS, soak)
	b.info("soak: %d + %d requests at %g/s, p50 %.2f / %.2f ms untraced / traced",
		len(bare), len(soak), soakQPS, pb.Lat.P50, pt.Lat.P50)
	b.set("obs.trace_overhead_share", pt.Lat.P50/pb.Lat.P50-1)
	for _, ss := range [][]sample{bare, soak} {
		b.attempted += len(ss)
		b.failed += countFailures(ss)
	}
	return r.reportTraced(b, soak, mw)
}

// reportTraced sets serve-hot's per-layer metrics: route, connection-wait
// and generator-lag figures from the soak's spans, the stage split from
// replaying the soak's first requests through the pipeline stages, and
// discovery query times on the built index.
func (r *serveRig) reportTraced(b *bench, soak []sample, mw *memWindow) error {
	cs := r.enc.CacheStats()
	b.set("lm.text_cache_hit_ratio", ratio(cs.TextHits, cs.TextHits+cs.TextMisses))
	b.set("lm.token_cache_hit_ratio", ratio(cs.TokenHits, cs.TokenHits+cs.TokenMisses))
	b.set("lm.cache_evictions", float64(cs.EntriesEvicted()))

	ls := b.tr.layers()
	for _, route := range routeNames {
		if lt := ls["server."+route]; lt != nil {
			b.set("server.route_"+route+"_p50_ms", quantile(lt.Durs, 0.5))
			b.set("server.route_"+route+"_p99_ms", quantile(lt.Durs, 0.99))
		}
	}
	if lt := ls["loadgen.conn_wait"]; lt != nil {
		b.set("loadgen.conn_wait_ms_p50", quantile(lt.Durs, 0.5))
		b.set("loadgen.conn_wait_ms_p99", quantile(lt.Durs, 0.99))
	}
	lags := make([]float64, len(soak))
	tables, calls := 0, 0
	for i, s := range soak {
		lags[i] = float64(s.SendLag) / 1e6
		if n := engineTables(s.Arrival.Kind); n > 0 {
			tables += n
			calls++
		}
	}
	b.set("loadgen.send_lag_ms_p99", quantile(lags, 0.99))
	b.set("infer.tables_per_call", ratio(uint64(tables), uint64(calls)))
	shed := r.srv.Metrics().Counter("http.shed").Value()
	b.set("server.shed_share", ratio(shed, uint64(b.attempted)))
	mw.report(b)

	// Stage split: the soak's first requests, in order, on the same warm
	// cache, through the stage functions one call at a time.
	var split stageSplit
	m := r.eng.Model()
	for i, s := range soak {
		if i == replayRequests {
			break
		}
		var ks []int
		switch s.Arrival.Kind {
		case routePredict, routeIndex:
			ks = []int{s.Arrival.Table}
		case routePredictBatch:
			ks = batchTables(s.Arrival.Table)
		default:
			continue
		}
		ts := make([]*table.Table, len(ks))
		for j, k := range ks {
			ts[j] = r.pool[k]
		}
		// A single-table request runs as one chunk; a batch as the
		// engine splits it.
		got := driveStages(b.tr, m, ts, r.eng.Workers(), r.eng.MaxBatch(), int64(1_000_000+i), &split)
		b.attempted++
		for j, k := range ks {
			if !reflect.DeepEqual(got[j], r.expected[k]) {
				b.failed++
				b.info("stage replay of pool table %d differs from the engine", k)
				break
			}
		}
	}
	reportStages(b, &split)

	ids := make([]string, len(r.pool))
	for k := range ids {
		ids[k] = poolID(k)
	}
	return reportDiscovery(b, r.srv.Index(), ids)
}

// reportDiscovery times discovery queries on a built index, under spans:
// UnionCandidates for each table id and Columns for each type.
func reportDiscovery(b *bench, ix *discovery.TypeIndex, ids []string) error {
	var qs []float64
	timed := func(name string, q func() error) error {
		id := b.tr.begin(name, -1, 0)
		t0 := time.Now()
		err := q()
		qs = append(qs, float64(time.Since(t0))/1e3)
		b.tr.end(id)
		return err
	}
	for _, tid := range ids {
		if err := timed("discovery.union_candidates", func() error {
			_, err := ix.UnionCandidates(tid, 10)
			return err
		}); err != nil {
			return err
		}
	}
	for _, ty := range ix.Types() {
		timed("discovery.columns", func() error {
			ix.Columns(ty)
			return nil
		})
	}
	b.set("discovery.query_us_p50", median(qs))
	b.set("discovery.index_columns", float64(ix.Stats().Columns))
	return nil
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return raw
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
