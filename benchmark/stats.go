package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending slice; 0 when it is empty.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of vs (the mean of the two middle
// ones for an even count); 0 when it is empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max−min)/|median| of vs: how far a run's repetitions
// disagreed, recorded beside every reported median.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) == 0 || m == 0 {
		return 0
	}
	return (slices.Max(vs) - slices.Min(vs)) / math.Abs(m)
}
