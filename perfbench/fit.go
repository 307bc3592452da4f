package main

import (
	"fmt"
	"sync"
	"time"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/core"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// layerAgg accumulates the train and snn observations of a traced run;
// several trainings may report at once.
type layerAgg struct {
	mu                   sync.Mutex
	epochS, gateS, optMS []float64
	rateSum              []float64
	rateN                int
}

func (a *layerAgg) addEpoch(d time.Duration) {
	a.mu.Lock()
	a.epochS = append(a.epochS, d.Seconds())
	a.mu.Unlock()
}

func (a *layerAgg) addGate(d time.Duration) {
	a.mu.Lock()
	a.gateS = append(a.gateS, d.Seconds())
	a.mu.Unlock()
}

func (a *layerAgg) addStep(d time.Duration, rec *snn.Trace) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.optMS = append(a.optMS, ms(d))
	a.addRatesLocked(rec)
}

// addRates records the hidden-layer spike rates of one forward pass.
func (a *layerAgg) addRates(rec *snn.Trace) {
	a.mu.Lock()
	a.addRatesLocked(rec)
	a.mu.Unlock()
}

func (a *layerAgg) addRatesLocked(rec *snn.Trace) {
	if rec == nil || len(rec.SpikeRates) == 0 {
		return
	}
	for len(a.rateSum) < len(rec.SpikeRates) {
		a.rateSum = append(a.rateSum, 0)
	}
	for i, r := range rec.SpikeRates {
		a.rateSum[i] += r
	}
	a.rateN++
}

// store writes the train.* and snn.spike_rate.* metrics.
func (a *layerAgg) store(metrics map[string]float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	metrics["train.epoch_s"] = mean(a.epochS)
	metrics["train.gate_s"] = mean(a.gateS)
	metrics["train.opt_ms"] = mean(a.optMS)
	for i := 0; i < 3; i++ {
		v := 0.0
		if i < len(a.rateSum) && a.rateN > 0 {
			v = a.rateSum[i] / float64(a.rateN)
		}
		metrics[fmt.Sprintf("snn.spike_rate.h%d", i)] = v
	}
}

// trainHooks instruments one training run from outside, through
// train.Config.Log and the optimizer: each Log line closes an epoch span,
// each optimizer step is timed, and after each step the hidden-layer
// spike rates the network recorded for that batch are collected.
type trainHooks struct {
	tr     *tracer
	agg    *layerAgg
	group  string
	parent int64
	net    *snn.Network
	last   time.Time
}

func newTrainHooks(tr *tracer, agg *layerAgg, group string, parent int64, start time.Time) *trainHooks {
	return &trainHooks{tr: tr, agg: agg, group: group, parent: parent, last: start}
}

// Write receives the per-epoch Log line.
func (h *trainHooks) Write(p []byte) (int, error) {
	now := time.Now()
	h.tr.record("train.epoch", h.group, h.parent, h.last, now)
	h.agg.addEpoch(now.Sub(h.last))
	h.last = now
	return len(p), nil
}

// watch makes net record its per-layer activity on every forward pass.
func (h *trainHooks) watch(net *snn.Network) {
	net.Record = &snn.Trace{}
	h.net = net
}

// gate closes the learnability gate's span: the clean evaluation that
// runs from the last epoch until end.
func (h *trainHooks) gate(end time.Time) {
	h.tr.record("train.gate", h.group, h.parent, h.last, end)
	h.agg.addGate(end.Sub(h.last))
}

func (h *trainHooks) optimizer(inner train.Optimizer) train.Optimizer {
	return timedOptimizer{Optimizer: inner, h: h}
}

type timedOptimizer struct {
	train.Optimizer
	h *trainHooks
}

func (o timedOptimizer) Step(params []*nn.Param) {
	t0 := time.Now()
	o.Optimizer.Step(params)
	var rec *snn.Trace
	if o.h.net != nil {
		rec = o.h.net.Record
	}
	o.h.agg.addStep(time.Since(t0), rec)
}

// fitModel trains model the way the preset trains every network and
// returns its clean test accuracy. net is model when it is spiking, so a
// traced run can read its spike rates.
func fitModel(e *env, agg *layerAgg, name string, model nn.Classifier, net *snn.Network, trainDS, testDS *dataset.Dataset, be compute.Backend) (float64, error) {
	s := e.sz.scale
	cfg := train.Config{
		Epochs:    s.Epochs,
		BatchSize: s.BatchSize,
		Backend:   be,
		Optimizer: train.NewAdam(s.LR),
		GradClip:  s.GradClip,
		Shuffle:   tensor.NewRand(s.Seed, 0x5f),
	}
	var h *trainHooks
	if e.tr != nil {
		start := time.Now()
		id := e.tr.begin("setup.train", "model:"+name, 0)
		defer e.tr.end(id)
		h = newTrainHooks(e.tr, agg, "model:"+name, id, start)
		cfg.Log = h
		cfg.Optimizer = h.optimizer(cfg.Optimizer)
		if net != nil {
			h.watch(net)
			defer func() { net.Record = nil }()
		}
	}
	// Fit shuffles its dataset in place; each model trains on its own copy.
	if _, err := train.Fit(model, trainDS.Subset(0, trainDS.Len()), cfg); err != nil {
		return 0, fmt.Errorf("train %s: %w", name, err)
	}
	acc := train.EvaluateOn(be, model, testDS, s.EvalBatch)
	if h != nil {
		h.gate(time.Now())
	}
	return acc, nil
}

// probeTs are the time windows of the sweep's grid; the probe reports one
// BPTT step at each.
var probeTs = []int{4, 8}

// probeBPTT times one batch-32 BPTT step of a spiking LeNet-5 at each T of
// the grid on a one-wide backend, as each sweep worker runs it: forward is
// Network.Logits plus the loss on a tape, backward is Tape.Backward. It
// reports the median of seven steps.
func probeBPTT(e *env, res *result) error {
	s := e.sz.scale
	trainDS, _, err := core.LoadData(s.Data)
	if err != nil {
		return fmt.Errorf("probe data: %w", err)
	}
	b := trainDS.Batches(32)[0]
	be := compute.New(1)
	for _, T := range probeTs {
		net, err := core.NewSpikingLeNet5(s.Net, s.DefaultVth, T, core.SNNOptions{})
		if err != nil {
			return fmt.Errorf("probe net: %w", err)
		}
		group := fmt.Sprintf("probe:T%d", T)
		var fwd, bwd []float64
		for i := 0; i < 7; i++ {
			for _, p := range net.Params() {
				p.ZeroGrad()
			}
			tp := autodiff.NewTapeOn(be)
			t0 := time.Now()
			loss := tp.SoftmaxCrossEntropy(net.Logits(tp, tp.Const(b.X)), b.Y)
			t1 := time.Now()
			tp.Backward(loss)
			t2 := time.Now()
			tp.Release()
			e.tr.record("snn.forward", group, 0, t0, t1)
			e.tr.record("autodiff.backward", group, 0, t1, t2)
			fwd = append(fwd, ms(t1.Sub(t0)))
			bwd = append(bwd, ms(t2.Sub(t1)))
		}
		res.metrics[fmt.Sprintf("snn.forward_ms.T%d", T)] = median(fwd)
		res.metrics[fmt.Sprintf("autodiff.backward_ms.T%d", T)] = median(bwd)
	}
	return nil
}
