package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is a statistic computed once per segment and reported as the
// median over the segments, with its quartiles and the sample count the
// segments held in total.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize reduces per-segment values to a summary. n is the number of
// raw samples behind them.
func summarize(perSegment []float64, n int) summary {
	s := slices.Clone(perSegment)
	slices.Sort(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: n}
}

// micros converts durations to sorted microsecond values.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	slices.Sort(out)
	return out
}

// overSegments applies stat to each segment's sorted microsecond samples
// and summarizes the results. Empty segments are skipped: a failed op has
// no latency.
func overSegments(segs [][]time.Duration, stat func(sortedMicros []float64) float64) summary {
	var vals []float64
	n := 0
	for _, s := range segs {
		if len(s) == 0 {
			continue
		}
		vals = append(vals, stat(micros(s)))
		n += len(s)
	}
	return summarize(vals, n)
}

func p50(sorted []float64) float64 { return quantile(sorted, 0.50) }
func p99(sorted []float64) float64 { return quantile(sorted, 0.99) }

// medianMicros is the median of all samples, in microseconds.
func medianMicros(ds []time.Duration) float64 { return p50(micros(ds)) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartilesExclusive are the cut points Python's statistics.quantiles(v,
// n=4) gives (its default, "exclusive" method): the driver that accepts or
// rejects this benchmark measures spread with them, so --repeat does too.
func quartilesExclusive(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	if ld < 2 {
		return quantile(sorted, 0.25), quantile(sorted, 0.75)
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}
