package main

import (
	"math"
	"sort"
)

// tailQuantiles are the percentiles a tail may be reported at, highest
// last. tailOf picks the highest one the sample supports.
var tailQuantiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 over 200 samples rests on two values and is noise.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// An empty sample returns 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile returns the highest percentile of tailQuantiles that has at
// least minBeyond samples beyond it in a sample of n, or 0 when n is too
// small for even the median.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		// The epsilon absorbs float error in n*(1-q) (1000*(1-0.99) is
		// 9.999999999999991, not 10).
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			best = q
		}
	}
	return best
}

// tail is a latency sample summarised by its median and by the highest
// percentile it supports.
type tail struct {
	N        int
	P50      float64
	Q        float64 // the tail percentile as a fraction, e.g. 0.99
	TailP    float64 // the value at Q
	Failures int
}

func summarize(xs []float64, failures int) tail {
	t := tail{N: len(xs), Failures: failures, P50: median(xs)}
	t.Q = tailQuantile(len(xs))
	if t.Q > 0 {
		t.TailP = quantile(xs, t.Q)
	}
	return t
}
