package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"time"

	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/obs"
	"snnsec/internal/serve"
	"snnsec/internal/snn"
	"snnsec/internal/stream"
	"snnsec/internal/tensor"
)

// streamNet is the event-driven fixture of the streaming benchmark: a
// dense-layer SNN over a 16×16 sensor whose encoder is never called —
// the binner feeds packed spike planes straight into the stateful engine.
func streamNet() *snn.Network {
	r := tensor.NewRand(24, 0x57e4)
	cfg := snn.NeuronConfig{Vth: 0.3, Alpha: 0.9, Reset: snn.ResetZero, Surrogate: snn.FastSigmoid{Beta: 25}}
	return &snn.Network{
		Encoder: snn.ConstantCurrentEncoder{Gain: 1},
		Hidden: []snn.Layer{
			{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, 16*16, 32)), Cfg: cfg},
			{Syn: nn.NewLinear(r, 32, 32), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 32, 10),
		ReadoutCfg: cfg,
		Mode:       snn.ReadoutSpikeCount,
		T:          4,
		LogitScale: 10,
	}
}

// replaySetup is the streaming server with the whole event stream
// generated in memory, so the generator stays out of the timed replays.
type replaySetup struct {
	engine *serve.Engine
	events []stream.Event
	endUS  int64
}

func buildReplay(e *env) (*replaySetup, error) {
	eng, err := serve.NewEngine(streamNet(), compute.NewSerial(), []int{1, 16, 16})
	if err != nil {
		return nil, err
	}
	cfg := dataset.DefaultEventStreamConfig(e.sz.streamLabels, 42+uint64(variant(e.seed)))
	src, err := dataset.NewGlyphEventStream(cfg)
	if err != nil {
		return nil, err
	}
	st := &replaySetup{engine: eng, endUS: src.EndUS()}
	buf := make([]stream.Event, 512)
	for {
		n, err := src.Read(buf)
		st.events = append(st.events, buf[:n]...)
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// server returns a streaming server over the fixture: 4 steps per 4 ms
// window, tiling hops, so membrane state carries across windows.
// wrap, when non-nil, wraps each session's runner.
func (st *replaySetup) server(wrap func(stream.Runner) stream.Runner) (*stream.Server, error) {
	return stream.NewServer(stream.Config{
		Binner: stream.BinnerConfig{H: 16, W: 16, Steps: 4, WindowUS: 4000},
	}, func() (stream.Runner, error) {
		r, err := st.engine.NewStatefulRunner(compute.PackSpikePlanes())
		if err != nil || wrap == nil {
			return r, err
		}
		return wrap(r), nil
	})
}

// sliceSource replays events held in memory.
type sliceSource struct {
	ev  []stream.Event
	pos int
}

func (s *sliceSource) Read(buf []stream.Event) (int, error) {
	if s.pos >= len(s.ev) {
		return 0, io.EOF
	}
	n := copy(buf, s.ev[s.pos:])
	s.pos += n
	return n, nil
}

// lineDigest hashes the result lines and counts them and the error lines.
type lineDigest struct {
	h             hash.Hash
	lines, errors int
}

func (d *lineDigest) Write(p []byte) (int, error) {
	for _, line := range bytes.SplitAfter(p, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		d.lines++
		if bytes.HasPrefix(line, []byte(`{"error"`)) {
			d.errors++
		}
	}
	return d.h.Write(p)
}

// replay runs the whole stream through one session and returns the
// digest of its result lines.
func (st *replaySetup) replay(sv *stream.Server) (*lineDigest, error) {
	d := &lineDigest{h: sha256.New()}
	if _, err := sv.RunSource(context.Background(), &sliceSource{ev: st.events}, st.endUS, d); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return d, nil
}

// replaySpan is the span of the replay in progress; replays run one at
// a time.
type replaySpan struct {
	id    int64
	group string
	stepS []float64
}

// timedStep wraps a session's runner to time each window's Step.
type timedStep struct {
	stream.Runner
	tr  *tracer
	cur *replaySpan
}

func (r timedStep) Step(planes []*tensor.SpikeTensor) (*tensor.Tensor, error) {
	t0 := time.Now()
	out, err := r.Runner.Step(planes)
	t1 := time.Now()
	r.tr.record("stream.step", r.cur.group, r.cur.id, t0, t1)
	r.cur.stepS = append(r.cur.stepS, t1.Sub(t0).Seconds())
	return out, err
}

// runReplay is the stream-replay workload: a glyph event stream built in
// set-up, replayed through stream.Server.RunSource again and again.
func runReplay(e *env) (*result, error) {
	st, setupS, err := setupRepeated(e.sz.setupReps, func() (*replaySetup, error) { return buildReplay(e) })
	if err != nil {
		return nil, err
	}
	sv, err := st.server(nil)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: make(map[string]float64)}
	v := variant(e.seed)
	check := func(d *lineDigest) {
		res.attempted += d.lines
		res.failed += d.errors
		if e.expect == nil {
			return
		}
		got := hex.EncodeToString(d.h.Sum(nil))
		want := ""
		if v < len(e.expect.Stream) {
			want = e.expect.Stream[v]
		}
		if got != want && len(res.mismatches) == 0 {
			res.mismatch("variant %d result-line digest %s, recorded %s", v, got, want)
		}
	}
	measured := e.seconds
	if e.tr != nil {
		measured /= 2
	}
	walls, err := measureFor(measured, func() error {
		d, err := st.replay(sv)
		if err != nil {
			return err
		}
		check(d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(len(st.events)) / w
	}
	res.add("setup_s", setupS, "s")
	res.add("events_per_s", median(rates), "1/s")
	res.add("replay_ms", median(walls)*1000, "ms")
	res.add("replays", float64(len(walls)), "count")
	res.add("events_per_replay", float64(len(st.events)), "count")
	if e.tr == nil {
		res.metrics["setup_s"] = setupS
		res.metrics["work_per_s"] = median(rates)
		res.metrics["latency_ms"] = median(walls) * 1000
		return res, nil
	}

	// Metrics collection stays disarmed in untraced runs.
	obs.Arm()
	cur := &replaySpan{}
	tsv, err := st.server(func(r stream.Runner) stream.Runner {
		return timedStep{Runner: r, tr: e.tr, cur: cur}
	})
	if err != nil {
		return nil, err
	}
	before := readCounters()
	k := 0
	twalls, err := measureFor(measured, func() error {
		k++
		cur.group = fmt.Sprintf("replay:%d", k)
		cur.id = e.tr.begin("stream.replay", cur.group, 0)
		d, err := st.replay(tsv)
		e.tr.end(cur.id)
		if err != nil {
			return err
		}
		check(d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	after := readCounters()
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	bin := selfSeconds(spans, self, "stream.replay")
	whole := durations(spans, "stream.replay")
	m := res.metrics
	m["stream.step_us"] = mean(cur.stepS) * 1e6
	m["stream.bin_share"] = share(sum(bin), sum(whole))
	m["stream.windows"] = float64(len(cur.stepS)) / float64(len(twalls))
	m["trace.overhead_share"] = median(twalls)/median(walls) - 1
	addDeltas(m, before, after)
	return res, nil
}
