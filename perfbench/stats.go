package main

import (
	"math"
	"slices"
	"time"
)

// seconds converts durations to float seconds, the unit every timing
// metric is reported in.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest whole percentile of xs that still has at least
// minBeyond samples above it (nearest-rank), with the percentile and the
// number of samples beyond it. When no percentile above the median
// qualifies, it is the upper median with its true count beyond.
type tail struct {
	Value      float64
	Percentile int
	Beyond     int
}

const minBeyond = 10

func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	for p := 99; p > 50; p-- {
		k := int(math.Ceil(float64(p) * float64(n) / 100))
		if n-k >= minBeyond {
			return tail{Value: s[k-1], Percentile: p, Beyond: n - k}
		}
	}
	k := n/2 + 1
	return tail{Value: s[k-1], Percentile: 50, Beyond: n - k}
}
