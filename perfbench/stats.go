package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// dist summarizes one set of timing samples: the median and the tail,
// where the tail is the highest nearest-rank percentile that still has
// at least minBeyond samples beyond it.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // percentile the tail was read at
}

// tailRank returns the 0-based index, in n sorted samples, of the
// highest percentile with at least minBeyond samples beyond it. A tail
// is never read below the median: with fewer than 2·minBeyond+2 samples
// it returns the upper median's rank and ok = false.
func tailRank(n int) (rank int, ok bool) {
	mid := n / 2
	if r := n - 1 - minBeyond; r >= mid {
		return r, true
	}
	return mid, false
}

// summarize sorts a copy of xs and reads the median and the tail.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r, _ := tailRank(len(s))
	return dist{
		N:       len(s),
		P50:     median(s),
		Tail:    s[r],
		TailPct: 100 * float64(r+1) / float64(len(s)),
	}
}

// median of sorted samples, averaging the middle pair.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf is median on unsorted input.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func (d dist) String() string {
	if d.N == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50 %.3f, p%.1f %.3f (n=%d)", d.P50, d.TailPct, d.Tail, d.N)
}

// finite keeps values printable as JSON numbers.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
