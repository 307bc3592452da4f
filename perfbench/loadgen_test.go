package main

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// stallingServer serves one request at a time, like the batcher's single
// dispatcher, and stalls once for the given time on one request.
type stallingServer struct {
	mu      sync.Mutex
	stallOn int
	stall   time.Duration
	stalled time.Time // when the stall ended
}

func (s *stallingServer) do(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i == s.stallOn {
		time.Sleep(s.stall)
		s.stalled = time.Now()
	}
	return nil
}

// TestOpenLoopChargesStallsToLaterRequests checks the two properties the
// open loop exists for: requests that fall due while the server stalls
// are charged the wait from their due time, and the stall does not hold
// back the generator, whose lateness stays small.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const (
		n     = 40
		every = 5 * time.Millisecond
		stall = 100 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * every
	}
	srv := &stallingServer{stallOn: 4, stall: stall}
	start, outs := openLoop(due, srv.do)
	stallEnd := srv.stalled.Sub(start)

	waited := 0
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if o.late() > 30*time.Millisecond {
			t.Errorf("request %d sent %v after its due time; the stall held back the generator", i, o.late())
		}
		if o.latency() < o.done-o.sent {
			t.Errorf("request %d: latency %v shorter than the call itself", i, o.latency())
		}
		if i > 4 && o.due < stallEnd {
			// Queued behind the stall: the wait counts from the due time.
			if min := stallEnd - o.due; o.latency() < min {
				t.Errorf("request %d due at %v: latency %v, but the server was stalled until %v", i, o.due, o.latency(), stallEnd)
			} else {
				waited++
			}
		}
	}
	if waited < 10 {
		t.Errorf("only %d requests fell due during the stall", waited)
	}
	st := summarise(outs)
	if st.n != n || st.failed != 0 || st.tailPM != 500 {
		t.Errorf("summary %+v", st)
	}
}

func TestPoissonSchedule(t *testing.T) {
	d := poissonSchedule(rand.New(rand.NewPCG(1, 2)), 1000, 2*time.Second)
	if len(d) < 1800 || len(d) > 2200 {
		t.Errorf("%d arrivals at 1000/s over 2s", len(d))
	}
	for i := 1; i < len(d); i++ {
		if d[i] < d[i-1] || d[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v out of order or range", i, d[i])
		}
	}
	again := poissonSchedule(rand.New(rand.NewPCG(1, 2)), 1000, 2*time.Second)
	if len(again) != len(d) || again[len(d)/2] != d[len(d)/2] {
		t.Error("the same seed gave a different schedule")
	}
}

func TestGrowingBacklog(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		outs[i] = outcome{due: time.Duration(i) * time.Millisecond, done: time.Duration(i)*time.Millisecond + 3*time.Millisecond}
	}
	if summarise(outs).growing(100) {
		t.Error("flat latencies reported as a growing backlog")
	}
	for i := range outs {
		outs[i].done += time.Duration(i) * time.Millisecond // latency rises 1 ms per request
	}
	if st := summarise(outs); !st.growing(100) {
		t.Errorf("latency rising from %v to %v ms not reported as a growing backlog", st.firstMS, st.lastMS)
	}
}

func TestSLORate(t *testing.T) {
	// log-linear: 200·2^(log(100/50)/log(200/50)) = 200·√2
	if got := sloRate(200, 50, 400, 200, 100); got < 282.8 || got > 282.9 {
		t.Errorf("sloRate = %v, want ≈282.84", got)
	}
	if got := sloRate(200, 50, 400, inf, 100); got != 200 {
		t.Errorf("next rung failed outright: sloRate = %v, want 200", got)
	}
}
