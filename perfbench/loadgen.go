package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled request of an open-loop phase: when it is due
// (relative to the phase start), which request kind it is, and which pool
// table it draws on.
type arrival struct {
	At    time.Duration
	Kind  int
	Table int
}

// poissonSchedule draws n arrivals at the given mean rate (requests per
// second): exponential gaps, rescaled so the n-th arrival falls exactly at
// n/rate. That is a Poisson process conditioned on its count, so every
// phase offers exactly its nominal rate while keeping Poisson burstiness.
// Each request's kind is drawn from mix (weights summing to 1) and its
// table uniformly from [0, tables). The schedule is a pure function of its
// arguments.
func poissonSchedule(seed int64, rate float64, n int, mix []float64, tables int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, n)
	at := make([]float64, n)
	var sum float64
	for i := range out {
		sum += rng.ExpFloat64()
		at[i] = sum
		u := rng.Float64()
		kind := len(mix) - 1
		for k, acc := 0, 0.0; k < len(mix); k++ {
			acc += mix[k]
			if u < acc {
				kind = k
				break
			}
		}
		out[i] = arrival{Kind: kind, Table: rng.Intn(tables)}
	}
	scale := float64(n) / rate / sum
	for i := range out {
		out[i].At = time.Duration(at[i] * scale * float64(time.Second))
	}
	return out
}

// sample is the outcome of one scheduled request. Latency runs from the
// scheduled send time, so a stall charges every request queued behind it.
type sample struct {
	Due      time.Time
	Start    time.Time // when a connection picked the request up
	End      time.Time
	Err      error
	SendLag  time.Duration // how late the generator handed the request over
	Conn     int
	Arrival  arrival
	Latency  time.Duration // End - Due
	ConnWait time.Duration // Start - Due
}

// sender performs one request on connection conn (0 ≤ conn < conns). Each
// connection is used by one goroutine at a time.
type sender func(ctx context.Context, conn int, a arrival) error

// openLoop runs the schedule against send with exactly conns client
// connections: a generator hands each request over at its due time,
// whether or not earlier ones have finished, and requests wait in FIFO
// order for a free connection. It returns one sample per arrival, in
// schedule order, after every request has completed.
func openLoop(ctx context.Context, sched []arrival, conns int, send sender) []sample {
	out := make([]sample, len(sched))
	// Sized to the number of sends, so the generator never blocks on a
	// busy connection pool: backlog queues here and shows up as latency.
	queue := make(chan int, len(sched))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range queue {
				s := &out[i]
				s.Conn = conn
				s.Start = time.Now()
				s.Err = send(ctx, conn, sched[i])
				s.End = time.Now()
				s.Latency = s.End.Sub(s.Due)
				s.ConnWait = s.Start.Sub(s.Due)
			}
		}(c)
	}
	t0 := time.Now()
	for i, a := range sched {
		due := t0.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].Due = due
		out[i].Arrival = a
		out[i].SendLag = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop sends the arrivals one after another over a single
// connection, each as soon as the previous one has completed, until the
// schedule or the time budget runs out. With nothing else in flight, each
// latency is the request's service time.
func closedLoop(ctx context.Context, sched []arrival, budget time.Duration, send sender) []sample {
	var out []sample
	t0 := time.Now()
	for _, a := range sched {
		if time.Since(t0) >= budget {
			break
		}
		s := sample{Arrival: a, Due: time.Now()}
		s.Start = s.Due
		s.Err = send(ctx, 0, a)
		s.End = time.Now()
		s.Latency = s.End.Sub(s.Due)
		out = append(out, s)
	}
	return out
}

// saturate keeps conns connections busy: each sends the schedule's next
// request as soon as its previous one has completed, until the schedule
// or the time budget runs out. The server then works at the capacity the
// connection cap allows. It returns one sample per request sent, in
// schedule order.
func saturate(ctx context.Context, sched []arrival, conns int, budget time.Duration, send sender) []sample {
	out := make([]sample, len(sched))
	var next atomic.Int64 // the next schedule index to send
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for time.Since(t0) < budget {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				s := &out[i]
				s.Arrival, s.Conn = sched[i], conn
				s.Due = time.Now()
				s.Start = s.Due
				s.Err = send(ctx, conn, sched[i])
				s.End = time.Now()
				s.Latency = s.End.Sub(s.Due)
			}
		}(c)
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(sched))]
}

// phase summarises one open-loop phase.
type phase struct {
	Rate     float64 // offered requests per second
	Achieved float64 // completed requests per second over the phase
	Lat      tail    // latency from scheduled send, ms
	Backlog  bool    // completions fell behind arrivals
}

// keepUp is the share of the offered rate a phase must complete at: below
// it the queue grows for as long as the phase lasts.
const keepUp = 0.97

// summarizePhase computes the latency summary of a phase. A failed request
// counts as missing any latency limit, so it enters the sample at +Inf.
// Achieved is the completed requests over the time from the first due send
// to the last completion; when it falls below keepUp of the offered rate,
// requests arrived faster than they completed and the backlog grew.
func summarizePhase(rate float64, ss []sample) phase {
	lat := make([]float64, 0, len(ss))
	failures := 0
	var first, last time.Time
	for i, s := range ss {
		ms := float64(s.Latency) / 1e6
		if s.Err != nil {
			failures++
			ms = inf
		}
		lat = append(lat, ms)
		if i == 0 || s.Due.Before(first) {
			first = s.Due
		}
		if s.End.After(last) {
			last = s.End
		}
	}
	p := phase{Rate: rate, Lat: summarize(lat, failures)}
	if len(ss) > 1 {
		// n requests due over (n-1) mean gaps: the first is due one gap in.
		p.Achieved = float64(len(ss)-1-failures) / last.Sub(first).Seconds()
		p.Backlog = p.Achieved < keepUp*rate
	}
	return p
}

// windowedTail splits a phase into consecutive windows of size requests
// and returns the median over windows of each window's tail percentile
// (the highest one the window supports), with that percentile. The median
// over windows keeps one stall from deciding a run's tail figure.
func windowedTail(ss []sample, size int) (q, ms float64) {
	var tails []float64
	for lo := 0; lo+size <= len(ss); lo += size {
		p := summarizePhase(0, ss[lo:lo+size])
		q = p.Lat.Q
		tails = append(tails, p.Lat.TailP)
	}
	return q, median(tails)
}

// meets reports whether a phase stays within the latency limit (ms) at its
// tail percentile with no failures and no growing backlog.
func (p phase) meets(limitMs float64) bool {
	return p.Lat.Failures == 0 && !p.Backlog && p.Lat.Q > 0 && p.Lat.TailP <= limitMs
}

// maxRate searches the fixed ladder (ascending rates) for the highest rung
// whose probe meets the limit, by bisection: latency rises with offered
// load, so one passing rung implies every lower one passes. It returns the
// index of that rung (-1 when even the lowest fails) and the phases it
// probed.
func maxRate(ladder []float64, probe func(rate float64) phase, limitMs float64) (int, []phase) {
	var probed []phase
	lo, hi := -1, len(ladder) // ladder[lo] passes, ladder[hi] fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		p := probe(ladder[mid])
		probed = append(probed, p)
		if p.meets(limitMs) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probed
}
