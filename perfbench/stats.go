package main

import (
	"fmt"
	"math"
	"sort"
)

var inf = math.Inf(1)

// tailPerMille lists the candidate tail percentiles, highest first, in
// per-mille so the rank arithmetic stays exact.
var tailPerMille = []int{999, 990, 900, 500}

// rank returns the 1-based nearest-rank index of the pm-per-mille
// percentile in a sample of n: the smallest k with k/n ≥ pm/1000.
func rank(pm, n int) int {
	k := (pm*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// tail applies the reporting rule for a distribution's tail: the highest
// candidate percentile that still has at least ten samples beyond it.
// sorted must be ascending. ok is false when even the median lacks ten
// samples beyond it (fewer than 20 samples).
func tail(sorted []float64) (pm int, v float64, ok bool) {
	n := len(sorted)
	for _, pm := range tailPerMille {
		if k := rank(pm, n); n-k >= 10 {
			return pm, sorted[k-1], true
		}
	}
	return 0, 0, false
}

// percentileName renders a per-mille percentile as p50, p99, p99.9 ...
func percentileName(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprintf("p%d", pm/10)
	}
	return fmt.Sprintf("p%d.%d", pm/10, pm%10)
}

// median returns the middle value (the mean of the two middle values for
// an even count) without reordering xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// share returns part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
