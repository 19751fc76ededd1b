package bench

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileOnAFixedSample(t *testing.T) {
	sorted := []float64{1, 3, 5, 7, 9}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3}, {0.5, 5}, {0.9, 8.2}, {1, 9},
	} {
		if got := Quantile(sorted, c.q); !near(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{2, 4}, 0.5); !near(got, 3) {
		t.Errorf("median of two = %v, want 3", got)
	}
	if got := Quantile([]float64{42}, 0.99); got != 42 {
		t.Errorf("Quantile of one = %v, want 42", got)
	}
}

func TestLatencyPercentilesOnAFixedSample(t *testing.T) {
	l := NewLatencies(100)
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := l.Percentile(50); !near(got, 50.5) {
		t.Errorf("p50 = %v ms, want 50.5", got)
	}
	if got := l.Percentile(90); !near(got, 90.1) {
		t.Errorf("p90 = %v ms, want 90.1", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestRate(t *testing.T) {
	if got := Rate(1500, 3*time.Second); !near(got, 500) {
		t.Errorf("Rate = %v, want 500", got)
	}
}
