package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"snnsec/internal/compute"
	"snnsec/internal/core"
	"snnsec/internal/obs"
	"snnsec/internal/serve"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// errMismatch marks a response whose logits differ from the offline
// forward of the same sample.
var errMismatch = errors.New("response differs from offline Engine.Logits")

// serveSetup is the served model with its request pool: every test
// sample and its logits from an offline engine, one sample per forward.
type serveSetup struct {
	engine  *serve.Engine
	samples [][]float64
	ref     [][]float64
}

// buildServe trains the spiking LeNet-5 at size.serve with the
// constant-current encoder. A Poisson encoder's shared generator would
// make served logits depend on request history and batching, so only a
// deterministic encoder lets every response be checked. The engine runs
// on a one-wide backend: the dispatcher runs one forward at a time, and
// the load generator, in the same process, keeps the other core.
func buildServe(e *env, agg *layerAgg) (*serveSetup, error) {
	s := e.sz.scale
	trainDS, testDS, err := core.LoadData(s.Data)
	if err != nil {
		return nil, err
	}
	p := e.sz.serve
	net, err := core.NewSpikingLeNet5(s.Net, p.Vth, p.T, core.SNNOptions{Encoder: snn.ConstantCurrentEncoder{Gain: 1}})
	if err != nil {
		return nil, err
	}
	if _, err := fitModel(e, agg, "serve", net, net, trainDS, testDS, nil); err != nil {
		return nil, err
	}
	sample := testDS.X.Shape()[1:]
	eng, err := serve.NewEngine(net, compute.NewSerial(), sample)
	if err != nil {
		return nil, err
	}
	offline, err := serve.NewEngine(net, compute.NewSerial(), sample)
	if err != nil {
		return nil, err
	}
	st := &serveSetup{engine: eng}
	for i := 0; i < testDS.Len(); i++ {
		x := testDS.Subset(i, i+1).X
		logits, err := offline.Logits(x)
		if err != nil {
			return nil, err
		}
		st.samples = append(st.samples, append([]float64(nil), x.Data()...))
		st.ref = append(st.ref, append([]float64(nil), logits.Data()...))
	}
	return st, nil
}

// client sends single-sample predictions and checks each response.
type client struct {
	srv        *serve.Server
	st         *serveSetup
	rng        *rand.Rand
	mismatches atomic.Int64
}

// requests draws the sample index of each request of a phase.
func (c *client) requests(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = c.rng.IntN(len(c.st.samples))
	}
	return idx
}

func (c *client) predict(k int) error {
	resp, err := c.srv.Predict(context.Background(), &serve.PredictRequest{Inputs: [][]float64{c.st.samples[k]}})
	if err != nil {
		return err
	}
	got, want := resp.Logits[0], c.st.ref[k]
	same := len(got) == len(want)
	for j := 0; same && j < len(want); j++ {
		same = got[j] == want[j]
	}
	if !same {
		c.mismatches.Add(1)
		return errMismatch
	}
	return nil
}

// phaseResult is one open-loop phase at a fixed rate.
type phaseResult struct {
	rps   float64
	start time.Time
	wall  time.Duration
	outs  []outcome
	stats latencyStats
}

// phaseDur is frac of the run's seconds, stretched for a phase that
// needs its p99 until it expects minTailSamples requests.
func (e *env) phaseDur(rps, frac float64, needP99 bool) time.Duration {
	d := time.Duration(frac * float64(e.seconds))
	if least := time.Duration(1.1 * float64(e.sz.minTailSamples) / rps * float64(time.Second)); needP99 && d < least {
		d = least
	}
	return d
}

// phase runs one open-loop phase. Arrivals are Poisson, as from
// independent users, unless evenly is set: the idle phase spaces its
// requests evenly so that none overlaps and each shows a lone request's
// latency.
func (c *client) phase(rps float64, dur time.Duration, evenly bool) phaseResult {
	var due []time.Duration
	if evenly {
		due = evenSchedule(c.rng, rps, dur)
	} else {
		due = poissonSchedule(c.rng, rps, dur)
	}
	idx := c.requests(len(due))
	start, outs := openLoop(due, func(i int) error { return c.predict(idx[i]) })
	return phaseResult{rps: rps, start: start, wall: time.Since(start), outs: outs, stats: summarise(outs)}
}

// idlePhase spaces requests so that none overlaps another; busyPhase
// offers Poisson load below the knee, where batches coalesce.
func (c *client) idlePhase(e *env) phaseResult {
	return c.phase(e.sz.idleRPS, e.phaseDur(e.sz.idleRPS, 0.25, false), true)
}

func (c *client) busyPhase(e *env) phaseResult {
	return c.phase(e.sz.busyRPS, e.phaseDur(e.sz.busyRPS, 0.3, true), false)
}

// bursts offers the first n samples of the pool as n requests due at
// once, again each time the last burst has drained, for dur. With n the
// server's batch cap, each burst coalesces into one forward of the same
// inputs. It returns the rate at which each burst was served, with the
// outcomes of every request.
func (c *client) bursts(n int, dur time.Duration) ([]float64, []outcome) {
	due := make([]time.Duration, n)
	var rates []float64
	var all []outcome
	start := time.Now()
	for len(rates) == 0 || time.Since(start) < dur {
		_, outs := openLoop(due, func(i int) error { return c.predict(i % len(c.st.samples)) })
		var last time.Duration
		for _, o := range outs {
			last = max(last, o.done)
		}
		rates = append(rates, float64(n)/last.Seconds())
		all = append(all, outs...)
	}
	return rates, all
}

// meets reports whether a phase met the latency objective: nothing
// failed, the backlog did not grow and the tail stayed within the limit.
func (p phaseResult) meets(limitMS float64) bool {
	st := p.stats
	return st.failed == 0 && !st.growing(limitMS) && st.tailPM > 0 && st.tailMS <= limitMS
}

// sloRate is the rate at which the p99 reaches the limit between a rung
// at rate lo with p99 loMS, which met the objective, and the next rung
// at hi with p99 hiMS, which did not: log-linear interpolation, clamped
// to [lo, hi]. It is lo when hiMS is not finite, since then the next
// rung failed for another reason.
func sloRate(lo, loMS, hi, hiMS, limitMS float64) float64 {
	switch {
	case math.IsInf(hiMS, 0) || loMS >= limitMS || loMS <= 0:
		return lo
	case hiMS <= limitMS:
		return hi
	}
	f := math.Log(limitMS/loMS) / math.Log(hiMS/loMS)
	return lo * math.Pow(hi/lo, f)
}

// runServe is the serve-open workload: an open loop of single-sample
// Server.Predict calls, one goroutine per due request, at an idle rate,
// a busy rate below the knee, in bursts that find the peak rate, and up
// a ladder of rates until the latency objective is missed. Its
// latency_ms is the idle p50 and its work_per_s the peak rate: slo_rps,
// read off the p99 of one-second rungs, moves with every stall of a
// shared machine, so it is reported beside the bounded metrics.
func runServe(e *env) (*result, error) {
	reps := e.sz.trainReps
	agg := &layerAgg{}
	if e.tr != nil {
		reps = 1
	}
	st, setupS, err := setupRepeated(reps, func() (*serveSetup, error) { return buildServe(e, agg) })
	if err != nil {
		return nil, err
	}
	res := &result{metrics: make(map[string]float64)}
	rng := rand.New(rand.NewPCG(e.seed, 0x5e7e))
	limit := e.sz.sloMS

	srv, err := serve.NewServer(serve.Config{}, &serve.Model{Fingerprint: "perfbench", Runner: st.engine}, nil)
	if err != nil {
		return nil, err
	}
	c := &client{srv: srv, st: st, rng: rng}
	c.phase(e.sz.busyRPS, e.seconds/20, false) // warm-up, not recorded
	idle, busy := c.idlePhase(e), c.busyPhase(e)
	phases := []phaseResult{idle, busy}
	slo, sloRung := 0.0, 0.0
	var peak []float64
	if e.tr == nil {
		var outs []outcome
		peak, outs = c.bursts(e.sz.burst, e.seconds/5)
		st := summarise(outs)
		res.attempted += st.n
		res.failed += st.failed

		// Climb from the busy rate up the ladder to the first phase that
		// misses the objective; the idle phase is the floor.
		lo, r := idle, busy
		for {
			if !r.meets(limit) {
				hi := r.stats.tailMS
				if r.stats.failed > 0 || r.stats.growing(limit) || r.stats.tailPM == 0 {
					hi = inf
				}
				slo = sloRate(lo.rps, lo.stats.tailMS, r.rps, hi, limit)
				break
			}
			lo = r
			rate := max(e.sz.ladderStart, r.rps*e.sz.ladderStep)
			if rate > e.sz.ladderTop {
				slo = lo.rps
				break
			}
			r = c.phase(rate, e.phaseDur(rate, 0.1, true), false)
			phases = append(phases, r)
		}
		sloRung = lo.rps
	}
	srv.Close()
	if n := c.mismatches.Load(); n > 0 {
		res.mismatch("%d responses differ from offline Engine.Logits", n)
	}
	var late []float64
	for _, p := range phases {
		res.attempted += p.stats.n
		res.failed += p.stats.failed
		for _, o := range p.outs {
			late = append(late, ms(o.late()))
		}
	}
	_, lateTail, _ := tail(sortedCopy(late))
	res.add("setup_s", setupS, "s")
	addPhase(res, "idle", idle)
	addPhase(res, "busy", busy)
	if e.tr == nil {
		res.add("peak_rps", median(peak), "1/s")
		res.add("bursts", float64(len(peak)), "count")
		res.add("slo_rps", slo, "1/s")
		res.add("slo_rung_rps", sloRung, "1/s")
		res.add("slo_limit_ms", limit, "ms")
	}
	for _, r := range phases[2:] {
		name := fmt.Sprintf("ladder.%.0frps", r.rps)
		if math.IsInf(r.stats.tailMS, 0) {
			res.add(name+".failed", float64(r.stats.failed), "count")
			continue
		}
		res.add(fmt.Sprintf("%s.%s_ms", name, percentileName(r.stats.tailPM)), r.stats.tailMS, "ms")
	}
	res.add("gen_late_ms", lateTail, "ms")
	if e.tr == nil {
		res.metrics["setup_s"] = setupS
		res.metrics["work_per_s"] = median(peak)
		res.metrics["latency_ms"] = idle.stats.p50MS
		return res, nil
	}
	return res, tracedServe(e, agg, st, res, busy)
}

func addPhase(res *result, name string, p phaseResult) {
	res.add(name+"_rps", p.rps, "1/s")
	res.add(name+"_requests", float64(p.stats.n), "count")
	res.add(name+"_p50_ms", p.stats.p50MS, "ms")
	if p.stats.tailPM > 0 {
		res.add(fmt.Sprintf("%s_%s_ms", name, percentileName(p.stats.tailPM)), p.stats.tailMS, "ms")
	}
}

// forward is one coalesced forward pass the served runner ran.
type forward struct {
	start, end time.Time
	n          int
}

// timedRunner wraps the served engine to time each coalesced forward.
type timedRunner struct {
	serve.Runner
	tr  *tracer
	mu  sync.Mutex
	fwd []forward
}

func (r *timedRunner) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	t0 := time.Now()
	out, err := r.Runner.Logits(x)
	t1 := time.Now()
	r.mu.Lock()
	r.fwd = append(r.fwd, forward{t0, t1, x.Dim(0)})
	k := len(r.fwd)
	r.mu.Unlock()
	r.tr.record("serve.forward", fmt.Sprintf("batch:%d", k), 0, t0, t1)
	return out, err
}

// forwards returns the forwards from the i-th on.
func (r *timedRunner) forwards(i int) []forward {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]forward(nil), r.fwd[i:]...)
}

// busyWithin returns how much of [a, b) the runner spent in forwards.
func busyWithin(fwd []forward, a, b time.Time) time.Duration {
	var d time.Duration
	for _, f := range fwd {
		lo, hi := f.start, f.end
		if lo.Before(a) {
			lo = a
		}
		if hi.After(b) {
			hi = b
		}
		if hi.After(lo) {
			d += hi.Sub(lo)
		}
	}
	return d
}

// traceSink keeps the server's per-request trace lines in memory.
type traceSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (t *traceSink) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Write(p)
}

// take returns the records written since the last call.
func (t *traceSink) take() ([]serve.TraceRecord, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var recs []serve.TraceRecord
	dec := json.NewDecoder(&t.buf)
	for dec.More() {
		var r serve.TraceRecord
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("trace record: %w", err)
		}
		recs = append(recs, r)
	}
	t.buf.Reset()
	return recs, nil
}

// tracedServe repeats the idle and busy phases against a server with
// TraceWriter set and the runner wrapped, and derives the serve-layer
// breakdown of each phase.
func tracedServe(e *env, agg *layerAgg, st *serveSetup, res *result, untracedBusy phaseResult) error {
	// Metrics collection stays disarmed in untraced runs.
	obs.Arm()
	sink := &traceSink{}
	runner := &timedRunner{Runner: st.engine, tr: e.tr}
	srv, err := serve.NewServer(serve.Config{TraceWriter: sink}, &serve.Model{Fingerprint: "perfbench", Runner: runner}, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	c := &client{srv: srv, st: st, rng: rand.New(rand.NewPCG(e.seed, 0x7ace))}
	before := readCounters()
	var late []float64
	var busy phaseResult
	for _, ph := range []struct {
		name string
		run  func(*env) phaseResult
	}{{"idle", c.idlePhase}, {"busy", c.busyPhase}} {
		first := len(runner.forwards(0))
		p := ph.run(e)
		recs, err := sink.take()
		if err != nil {
			return err
		}
		fwd := runner.forwards(first)
		// A request's time before dispatch splits into queueing behind
		// another batch's forward and waiting while the dispatcher is free
		// (the batch timer); the rest after its forward is the response.
		var queue, wait, respond []float64
		for _, r := range recs {
			enq := time.UnixMicro(r.EnqueueUS)
			queued := busyWithin(fwd, enq, enq.Add(time.Duration(r.QueueNS)))
			queue = append(queue, ms(queued))
			wait = append(wait, ms(time.Duration(r.QueueNS)-queued))
			respond = append(respond, float64(r.TotalNS-r.QueueNS-r.ForwardNS)/1e6)
		}
		var busyS, samples float64
		for _, f := range fwd {
			busyS += f.end.Sub(f.start).Seconds()
			samples += float64(f.n)
		}
		m := res.metrics
		pre := "serve." + ph.name + "."
		m[pre+"queue_ms"] = mean(queue)
		m[pre+"wait_ms"] = mean(wait)
		m[pre+"respond_ms"] = mean(respond)
		m[pre+"forward_ms"] = share(busyS*1000, float64(len(fwd)))
		m[pre+"batch_n"] = share(samples, float64(len(fwd)))
		m[pre+"forward_busy_share"] = share(busyS, p.wall.Seconds())
		for i, o := range p.outs {
			group := fmt.Sprintf("req:%s:%d", ph.name, i)
			id := e.tr.record("client.request", group, 0, p.start.Add(o.due), p.start.Add(o.done))
			e.tr.record("serve.predict", group, id, p.start.Add(o.sent), p.start.Add(o.done))
			late = append(late, ms(o.late()))
		}
		res.attempted += p.stats.n
		res.failed += p.stats.failed
		busy = p
	}
	if n := c.mismatches.Load(); n > 0 {
		res.mismatch("%d traced responses differ from offline Engine.Logits", n)
	}
	_, lateTail, _ := tail(sortedCopy(late))
	res.metrics["gen.late_ms"] = lateTail
	res.metrics["trace.overhead_share"] = busy.stats.p50MS/untracedBusy.stats.p50MS - 1
	agg.store(res.metrics)
	addDeltas(res.metrics, before, readCounters())
	return nil
}
