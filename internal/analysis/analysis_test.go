package analysis

import (
	"bytes"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

func smallNet(vth float64, T int) *snn.Network {
	r := tensor.NewRand(5, 0)
	cfg := snn.NeuronConfig{Vth: vth, Alpha: 0.9, Reset: snn.ResetZero, Surrogate: snn.FastSigmoid{Beta: 10}}
	return &snn.Network{
		Encoder: snn.ConstantCurrentEncoder{Gain: 1},
		Hidden: []snn.Layer{
			{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, 64, 16)), Cfg: cfg},
			{Syn: nn.NewLinear(r, 16, 16), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 16, 10),
		ReadoutCfg: cfg,
		Mode:       snn.ReadoutSpikeCount,
		T:          T,
		LogitScale: 10,
	}
}

func smallBatch(t *testing.T) (*tensor.Tensor, []int, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.DefaultSynthConfig(32, 3)
	cfg.Size = 8
	ds, err := dataset.SynthDigits(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	b := ds.Batches(16)[0]
	return b.X, b.Y, ds
}

func TestActivityProfileBasics(t *testing.T) {
	x, _, _ := smallBatch(t)
	p := Activity(smallNet(0.5, 6), x)
	if len(p.LayerRates) != 2 {
		t.Fatalf("layer rates = %d", len(p.LayerRates))
	}
	for i, r := range p.LayerRates {
		if r < 0 || r > 1 {
			t.Errorf("layer %d rate %v out of [0,1]", i, r)
		}
	}
	if p.MeanRate < 0 || p.MeanRate > 1 {
		t.Errorf("mean rate %v", p.MeanRate)
	}
}

func TestActivityDetectsSilentNetwork(t *testing.T) {
	x, _, _ := smallBatch(t)
	p := Activity(smallNet(1e9, 4), x)
	if p.SilentFraction != 1 {
		t.Errorf("silent fraction = %v, want 1", p.SilentFraction)
	}
	if p.MeanRate != 0 {
		t.Errorf("silent network rate = %v", p.MeanRate)
	}
}

func TestActivityRestoresRecorder(t *testing.T) {
	x, _, _ := smallBatch(t)
	net := smallNet(0.5, 4)
	Activity(net, x)
	if net.Record != nil {
		t.Error("Activity leaked its recorder into the network")
	}
}

func TestActivityRateDecreasesWithVth(t *testing.T) {
	x, _, _ := smallBatch(t)
	lo := Activity(smallNet(0.25, 6), x)
	hi := Activity(smallNet(2.5, 6), x)
	if hi.MeanRate > lo.MeanRate {
		t.Errorf("raising Vth increased firing: %v -> %v", lo.MeanRate, hi.MeanRate)
	}
}

func TestInputGradientsSilentMeansMasked(t *testing.T) {
	x, y, _ := smallBatch(t)
	g := InputGradients(smallNet(1e9, 4), x, y)
	// A silent network has (almost) no gradient path to the pixels; with
	// the sharp surrogate far from threshold the gradient is tiny.
	if g.MeanAbs > 1e-3 {
		t.Errorf("silent network leaks gradient: mean |g| = %v", g.MeanAbs)
	}
	live := InputGradients(smallNet(0.5, 6), x, y)
	if live.MeanAbs <= g.MeanAbs {
		t.Errorf("live network gradient (%v) not above silent (%v)", live.MeanAbs, g.MeanAbs)
	}
	if live.MaxAbs < live.MedianAbs {
		t.Error("max below median")
	}
	if g.ZeroFraction < 0 || g.ZeroFraction > 1 {
		t.Errorf("zero fraction %v", g.ZeroFraction)
	}
}

func TestMarginsUntrainedNearZero(t *testing.T) {
	x, y, _ := smallBatch(t)
	m := Margins(smallNet(0.5, 6), x, y)
	if math.IsInf(m.Min, 1) {
		t.Error("min margin not computed")
	}
	if m.NegativeFraction < 0 || m.NegativeFraction > 1 {
		t.Errorf("negative fraction %v", m.NegativeFraction)
	}
	// An untrained net misclassifies most samples: many negative margins.
	if m.NegativeFraction < 0.3 {
		t.Errorf("untrained network suspiciously confident: neg frac %v", m.NegativeFraction)
	}
}

func TestMarginsLabelMismatchPanics(t *testing.T) {
	x, _, _ := smallBatch(t)
	defer func() {
		if recover() == nil {
			t.Fatal("label count mismatch did not panic")
		}
	}()
	Margins(smallNet(0.5, 4), x, []int{0})
}

func TestSweepVthRestoresThresholds(t *testing.T) {
	_, _, ds := smallBatch(t)
	net := smallNet(0.7, 4)
	rows := SweepVth(net, ds, []float64{0.25, 1, 4}, 8)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if net.Hidden[0].Cfg.Vth != 0.7 || net.ReadoutCfg.Vth != 0.7 {
		t.Error("SweepVth did not restore the original thresholds")
	}
	// Firing rate must be non-increasing across the sweep.
	for i := 1; i < len(rows); i++ {
		if rows[i].Profile.MeanRate > rows[i-1].Profile.MeanRate+1e-9 {
			t.Errorf("rate increased from Vth=%g to %g", rows[i-1].Vth, rows[i].Vth)
		}
	}
}

func TestWriteVthSweep(t *testing.T) {
	_, _, ds := smallBatch(t)
	rows := SweepVth(smallNet(0.5, 4), ds, []float64{0.5, 2}, 8)
	var buf bytes.Buffer
	WriteVthSweep(&buf, rows)
	s := buf.String()
	if !strings.Contains(s, "Vth") || !strings.Contains(s, "grad_mean") {
		t.Errorf("sweep table incomplete:\n%s", s)
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 3 {
		t.Errorf("sweep table rows:\n%s", s)
	}
}

// arenaSpy counts the buffers drawn from and returned to a backend's
// arena.
type arenaSpy struct {
	compute.Backend
	gets, puts atomic.Int64
}

func (s *arenaSpy) Get(n int) []float64 {
	s.gets.Add(1)
	return s.Backend.Get(n)
}

func (s *arenaSpy) Put(buf []float64) {
	s.puts.Add(1)
	s.Backend.Put(buf)
}

// TestDiagnosticsReturnTheirSlabs pins that Activity and Margins release
// their tapes: every LIF slab they draw from the default backend's arena
// goes back to it.
func TestDiagnosticsReturnTheirSlabs(t *testing.T) {
	x, y, _ := smallBatch(t)
	defer compute.SetDefault(compute.Default())
	for name, run := range map[string]func(){
		"Activity": func() { Activity(smallNet(0.5, 4), x) },
		"Margins":  func() { Margins(smallNet(0.5, 4), x, y) },
	} {
		spy := &arenaSpy{Backend: compute.NewSerial()}
		compute.SetDefault(spy)
		run()
		if gets, puts := spy.gets.Load(), spy.puts.Load(); gets == 0 || gets != puts {
			t.Errorf("%s: %d arena buffers drawn, %d returned", name, gets, puts)
		}
	}
}
