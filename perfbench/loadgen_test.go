package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleIsAFunctionOfItsSeed(t *testing.T) {
	a := poissonSchedule(7, 80, 500, serveMix, servePoolTables)
	b := poissonSchedule(7, 80, 500, serveMix, servePoolTables)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 80, 500, serveMix, servePoolTables); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// The n-th arrival lands at n/rate, so the phase offers its nominal
	// rate exactly.
	if got, want := a[len(a)-1].At, 500*time.Second/80; got < want-time.Millisecond || got > want+time.Millisecond {
		t.Fatalf("last arrival at %v, want %v", got, want)
	}
	kinds := make([]int, len(serveMix))
	for i, x := range a {
		if i > 0 && x.At < a[i-1].At {
			t.Fatalf("arrival %d goes back in time", i)
		}
		if x.Table < 0 || x.Table >= servePoolTables {
			t.Fatalf("arrival %d draws table %d", i, x.Table)
		}
		kinds[x.Kind]++
	}
	if kinds[routePredict] < 300 || kinds[routeUnion] == 0 {
		t.Fatalf("request mix %v is far from %v", kinds, serveMix)
	}
}

// stub is an HTTP handler with a fixed service time that records how many
// requests it served at once and from how many connections.
type stub struct {
	service         time.Duration
	active, maxSeen atomic.Int64
	mu              sync.Mutex
	remotes         map[string]bool
}

func newStub(service time.Duration) *stub { return &stub{service: service, remotes: map[string]bool{}} }

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := s.active.Add(1)
	defer s.active.Add(-1)
	for {
		m := s.maxSeen.Load()
		if n <= m || s.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	s.mu.Lock()
	s.remotes[r.RemoteAddr] = true
	s.mu.Unlock()
	time.Sleep(s.service)
}

// stubSender sends one GET per arrival, each connection index with its own
// single-connection client, as serve-hot does.
func stubSender(url string, conns int) (sender, func()) {
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = newClient()
	}
	send := func(ctx context.Context, conn int, a arrival) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := clients[conn].Do(req)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	}
	return send, func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}
}

func TestOpenLoopHonoursConnectionCap(t *testing.T) {
	st := newStub(5 * time.Millisecond)
	srv := httptest.NewServer(st)
	defer srv.Close()
	send, done := stubSender(srv.URL, serveConns)
	defer done()

	// 1000/s against a capacity of 2/5ms = 400/s: requests pile up, and
	// must wait for one of the serveConns connections rather than open more.
	ss := openLoop(context.Background(), poissonSchedule(1, 1000, 200, serveMix, 1), serveConns, send)
	if got := st.maxSeen.Load(); got != serveConns {
		t.Fatalf("server saw %d concurrent requests, want exactly %d", got, serveConns)
	}
	if got := len(st.remotes); got > serveConns {
		t.Fatalf("client opened %d connections, cap %d", got, serveConns)
	}
	var waited bool
	for i, s := range ss {
		if s.Err != nil {
			t.Fatalf("request %d: %v", i, s.Err)
		}
		if s.Conn < 0 || s.Conn >= serveConns {
			t.Fatalf("request %d ran on connection %d", i, s.Conn)
		}
		if s.Latency < s.ConnWait || s.ConnWait < 0 {
			t.Fatalf("request %d: latency %v, connection wait %v", i, s.Latency, s.ConnWait)
		}
		waited = waited || s.ConnWait > 10*time.Millisecond
	}
	if !waited {
		t.Fatal("an overloaded pool of connections never made a request wait")
	}
}

func TestSaturateKeepsEveryConnectionBusy(t *testing.T) {
	st := newStub(10 * time.Millisecond)
	srv := httptest.NewServer(st)
	defer srv.Close()
	send, done := stubSender(srv.URL, serveConns)
	defer done()

	// serveConns connections at 10 ms a request complete 200 requests/s.
	ss := saturate(context.Background(), poissonSchedule(1, 1, 1000, serveMix, 1), serveConns, 500*time.Millisecond, send)
	if got := st.maxSeen.Load(); got != serveConns {
		t.Fatalf("server saw %d concurrent requests, want exactly %d", got, serveConns)
	}
	if got := len(st.remotes); got > serveConns {
		t.Fatalf("client opened %d connections, cap %d", got, serveConns)
	}
	for i, s := range ss {
		if s.Err != nil || s.End.IsZero() {
			t.Fatalf("request %d was not completed: %v", i, s.Err)
		}
	}
	if got := summarizePhase(0, ss).Achieved; got < 150 || got > 205 {
		t.Fatalf("completed %.1f requests/s, want about 200", got)
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 1..200, in reverse
	}
	tl := summarize(xs, 0)
	if tl.Q != 0.95 || tl.TailP != 190 || tl.P50 != 100 {
		t.Fatalf("summarize of 1..200 = %+v, want p95 190 and p50 100", tl)
	}
}

func TestMaxRateBisectsToTheLastPassingRung(t *testing.T) {
	lad := ladder(10, 1.1, 20)
	for knee := -1; knee < len(lad); knee++ {
		var probed []float64
		got, _ := maxRate(lad, func(rate float64) phase {
			probed = append(probed, rate)
			p := phase{Rate: rate, Lat: tail{N: 200, Q: 0.95, TailP: 10}}
			if knee < 0 || rate > lad[knee] {
				p.Lat.TailP = 1000
			}
			return p
		}, 100)
		if got != knee {
			t.Fatalf("knee at rung %d: found %d", knee, got)
		}
		if len(probed) > 5 {
			t.Fatalf("knee at rung %d: %d probes, bisection of 20 rungs needs at most 5", knee, len(probed))
		}
	}
}

func TestMaxRateFindsTheKneeOfAFixedServiceTime(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real load for a few seconds")
	}
	// Two connections to a 20 ms handler serve at most 100 requests/s.
	const capacity = 100.0
	st := newStub(20 * time.Millisecond)
	srv := httptest.NewServer(st)
	defer srv.Close()
	send, done := stubSender(srv.URL, serveConns)
	defer done()

	lad := ladder(50, 1.1, 10) // 50 .. 118
	rung, probed := maxRate(lad, func(rate float64) phase {
		ss := openLoop(context.Background(), poissonSchedule(int64(rate), rate, int(2*rate), []float64{1}, 1), serveConns, send)
		return summarizePhase(rate, ss)
	}, 250)
	if rung < 0 {
		t.Fatalf("no rung passed: %+v", probed)
	}
	if got := lad[rung]; got < 0.7*capacity || got > capacity {
		t.Fatalf("max rate %g/s, want within [%g, %g] for a capacity of %g/s; probes %+v",
			got, 0.7*capacity, capacity, capacity, probed)
	}
	for _, p := range probed {
		if p.Rate > 1.1*capacity && p.meets(250) {
			t.Fatalf("rung %g/s is past capacity %g/s but passed: %+v", p.Rate, capacity, p)
		}
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	iv := [][2]int64{{10, 20}, {15, 30}, {40, 50}, {-5, 2}, {60, 200}}
	// Within [0, 100): [0,2) + [10,30) + [40,50) + [60,100) = 2+20+10+40.
	if got := covered(iv, 0, 100); got != 72 {
		t.Fatalf("covered = %d, want 72", got)
	}
}

func TestTracerSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	base := tr.t0
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("request", at(0), at(100), -1, 1)
	tr.record("loadgen.conn_wait", at(0), at(30), root, 1)
	tr.record("server.predict", at(30), at(100), root, 1)
	ls := tr.layers()
	if got := ls["request"].Self; got != 0 {
		t.Fatalf("request self time %v, want 0: its children cover it", got)
	}
	if got := ls["server.predict"].Self; got != 70*time.Millisecond {
		t.Fatalf("server.predict self time %v, want 70ms", got)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	nilTracer.end(-1)
}
