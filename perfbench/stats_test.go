package main

import (
	"math"
	"testing"
)

// TestTailRule pins the reporting rule: the highest percentile with at
// least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantPM int // 0: no percentile qualifies
	}{
		{10000, 999},
		{9999, 990},
		{1000, 990},
		{999, 900},
		{100, 900},
		{99, 500},
		{20, 500},
		{19, 0},
		{1, 0},
	} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		pm, v, ok := tail(s)
		if ok != (tc.wantPM != 0) || pm != tc.wantPM {
			t.Errorf("n=%d: got %s (ok=%v), want %s", tc.n, percentileName(pm), ok, percentileName(tc.wantPM))
			continue
		}
		if !ok {
			continue
		}
		// Values are their own ranks: exactly n-v samples lie beyond.
		if beyond := tc.n - int(v); beyond < 10 {
			t.Errorf("n=%d %s: only %d samples beyond %v", tc.n, percentileName(pm), beyond, v)
		}
		if k := rank(pm, tc.n); float64(k)/float64(tc.n) < float64(pm)/1000 {
			t.Errorf("n=%d: rank %d is below the %s", tc.n, k, percentileName(pm))
		}
	}
}

func TestPercentileName(t *testing.T) {
	for pm, want := range map[int]string{500: "p50", 900: "p90", 990: "p99", 999: "p99.9"} {
		if got := percentileName(pm); got != want {
			t.Errorf("percentileName(%d) = %s, want %s", pm, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestSummariseCountsFailuresAsMisses(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		outs[i] = outcome{due: 0, sent: 0, done: 1e6} // 1 ms
	}
	for i := 0; i < 11; i++ {
		outs[i].err = errMismatch
	}
	st := summarise(outs)
	if st.failed != 11 || st.tailPM != 900 || !math.IsInf(st.tailMS, 1) {
		t.Errorf("failed=%d tail %s=%v, want 11 failures and an infinite p90", st.failed, percentileName(st.tailPM), st.tailMS)
	}
	if st.p50MS != 1 {
		t.Errorf("p50 = %v ms, want 1", st.p50MS)
	}
}
