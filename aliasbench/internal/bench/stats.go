package bench

import (
	"math"
	"sort"
	"time"
)

// The benchmark keeps its own rate and percentile code rather than the
// program's internal/stats, so that a change to the program cannot change
// how the benchmark reports it.

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between the closest ranks. xs must be sorted ascending and non-empty.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// tailLevels are the percentiles TailPercentile chooses from, highest first.
var tailLevels = []float64{99.99, 99.9, 99, 90}

// TailPercentile returns the highest of p99.99, p99.9, p99 and p90 that has
// at least ten of n samples beyond it, or 0 when none has: with fewer than
// 100 samples there is no tail to report.
func TailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// Rate returns count per second of d.
func Rate(count int64, d time.Duration) float64 {
	return float64(count) / d.Seconds()
}

// Latencies collects per-request wall times in a buffer sized before the
// timed phase, so recording one does not allocate.
type Latencies struct {
	ns []float64
}

// NewLatencies returns a collector with room for n samples.
func NewLatencies(n int) *Latencies { return &Latencies{ns: make([]float64, 0, n)} }

// Add records one sample.
func (l *Latencies) Add(d time.Duration) { l.ns = append(l.ns, float64(d.Nanoseconds())) }

// Len returns the number of samples.
func (l *Latencies) Len() int { return len(l.ns) }

// Percentile returns the p-th percentile (0–100) in milliseconds.
func (l *Latencies) Percentile(p float64) float64 {
	s := append([]float64(nil), l.ns...)
	sort.Float64s(s)
	return Quantile(s, p/100) / 1e6
}
