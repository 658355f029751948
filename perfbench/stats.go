package main

import (
	"math"
	"sort"
)

// tailGrid lists the candidate tail percentiles, highest first. A
// latency's tail is the highest of them with at least tailBeyond samples
// strictly above it.
var tailGrid = []float64{99.9, 99, 95, 90, 75, 50}

const tailBeyond = 10

// summary describes one latency sample set: its median and its tail.
type summary struct {
	N       int
	P50     float64
	TailPct float64 // the percentile the tail was taken at
	Tail    float64
	Beyond  int // samples strictly above Tail
}

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples; the epsilon keeps p·n/100 = 9990.000000000002 (99.9 of
// 10000 in floating point) at rank 9990.
func rank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile is the nearest-rank percentile p of the sorted samples.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(p, len(sorted))-1]
}

// beyond counts the samples strictly greater than v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// summarize computes the median and tail of xs (which it sorts). The
// tail is the highest percentile of tailGrid with at least tailBeyond
// samples beyond it; with fewer than 20 samples no grid percentile
// qualifies and the tail falls back to the median, so Beyond is then
// below tailBeyond and says so. An empty set summarizes to zeros.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.P50 = percentile(xs, 50)
	s.TailPct, s.Tail = 50, s.P50
	for _, p := range tailGrid {
		v := percentile(xs, p)
		if beyond(xs, v) >= tailBeyond {
			s.TailPct, s.Tail = p, v
			break
		}
	}
	s.Beyond = beyond(xs, s.Tail)
	return s
}

// median is the middle of xs (the mean of the two middle values for an
// even count); it sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
