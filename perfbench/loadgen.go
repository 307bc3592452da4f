package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// outcome is one open-loop request as the generator saw it. The times
// are offsets from the start of the phase.
type outcome struct {
	due  time.Duration // when the schedule says the request is sent
	sent time.Duration // when its goroutine actually called the server
	done time.Duration // when the call returned
	err  error
}

// latency is measured from the due time, so a stall that delays later
// requests, in the server or in the generator, shows in their latency.
func (o outcome) latency() time.Duration { return o.done - o.due }

// late is how far behind its schedule the generator sent the request.
func (o outcome) late() time.Duration { return o.sent - o.due }

// poissonSchedule returns the due offsets of independent users arriving
// at an average of rps requests per second for dur.
func poissonSchedule(r *rand.Rand, rps float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rps
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// evenSchedule returns due offsets spaced 1/rps apart over dur, from a
// random phase within the first interval.
func evenSchedule(r *rand.Rand, rps float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := r.Float64() / rps; t < dur.Seconds(); t += 1 / rps {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// openLoop sends request i at due[i] after its start time, on a goroutine
// of its own, whether or not earlier requests have returned, and waits
// for every request. No client pool caps the requests in flight, so the
// server's queue can grow.
func openLoop(due []time.Duration, do func(i int) error) (time.Time, []outcome) {
	out := make([]outcome, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if w := time.Until(start.Add(d)); w > 0 {
			time.Sleep(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Since(start)
			err := do(i)
			out[i] = outcome{due: d, sent: sent, done: time.Since(start), err: err}
		}()
	}
	wg.Wait()
	return start, out
}

// latencyStats summarises one open-loop phase. Failed requests count as
// missing any latency limit, so they enter the distribution as +Inf.
type latencyStats struct {
	n, failed int
	p50MS     float64
	tailPM    int // per-mille percentile of tailMS; 0 when n < 20
	tailMS    float64
	// firstMS and lastMS are the median latencies of the first and the
	// last fifth of the requests, in due order; 0 for fewer than 50.
	firstMS, lastMS float64
}

func summarise(outs []outcome) latencyStats {
	st := latencyStats{n: len(outs)}
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = ms(o.latency())
		if o.err != nil {
			st.failed++
			lat[i] = inf
		}
	}
	s := sortedCopy(lat)
	if len(s) > 0 {
		st.p50MS = s[rank(500, len(s))-1]
	}
	st.tailPM, st.tailMS, _ = tail(s)
	if k := len(lat) / 5; k >= 10 {
		st.firstMS, st.lastMS = median(lat[:k]), median(lat[len(lat)-k:])
	}
	return st
}

// growing reports a backlog that built up over the phase: the median
// latency of its last fifth exceeds that of its first fifth by more than
// half the latency limit.
func (st latencyStats) growing(limitMS float64) bool {
	return st.lastMS-st.firstMS > limitMS/2
}
