package attack

import (
	"sync/atomic"
	"testing"

	"snnsec/internal/compute"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// arenaSpy wraps a backend and counts the buffers drawn from and
// returned to its arena, so tests can prove an attack hands every
// tape slab back instead of leaving it to the garbage collector.
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

func (s *arenaSpy) assertBalanced(t *testing.T, what string) {
	t.Helper()
	gets, puts := s.gets.Load(), s.puts.Load()
	if gets == 0 {
		t.Fatalf("%s drew nothing from the arena", what)
	}
	if gets != puts {
		t.Errorf("%s: %d arena buffers drawn, %d returned", what, gets, puts)
	}
}

// releaseSNN is an untrained spiking conv net: its LIF slabs are the
// tape buffers the attacks must return.
func releaseSNN() *snn.Network {
	r := tensor.NewRand(5, 0)
	cfg := snn.NeuronConfig{Vth: 0.5, Alpha: 0.9, Reset: snn.ResetZero, Surrogate: snn.FastSigmoid{Beta: 5}}
	return &snn.Network{
		Encoder: snn.ConstantCurrentEncoder{Gain: 2},
		Hidden: []snn.Layer{
			{Syn: nn.NewSequential(nn.NewConv2D(r, 1, 4, 3, 2, 1), nn.Flatten{}), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 4*6*6, 10),
		ReadoutCfg: cfg,
		Mode:       snn.ReadoutSpikeCount,
		T:          4,
		LogitScale: 10,
	}
}

// TestAttackTapesReturnTheirSlabs pins that the gradient and prediction
// paths release their tapes: every buffer drawn from the backend arena
// goes back to it, and the returned input gradient survives the release
// unchanged across arena reuse.
func TestAttackTapesReturnTheirSlabs(t *testing.T) {
	ds := testData(t, 16)
	net := releaseSNN()
	b := ds.Batches(16)[0]

	spy := &arenaSpy{Backend: compute.NewSerial()}
	g1 := InputGradientOn(spy, net, b.X, b.Y).Clone()
	spy.assertBalanced(t, "InputGradientOn")
	g2 := InputGradientOn(spy, net, b.X, b.Y)
	if !g1.AllClose(g2, 0) {
		t.Error("input gradient changed across arena reuse")
	}
	if tensor.NormInf(g1) == 0 {
		t.Error("input gradient is identically zero")
	}

	spy = &arenaSpy{Backend: compute.NewSerial()}
	atk := PGD{Eps: 0.5, Steps: 2, Bounds: DatasetBounds(ds), Backend: spy}
	EvaluateOn(spy, net, ds, atk, 8)
	spy.assertBalanced(t, "EvaluateOn with PGD")

	spy = &arenaSpy{Backend: compute.NewSerial()}
	TargetedPGD{Eps: 0.5, Steps: 1, Target: 3, Bounds: DatasetBounds(ds), Backend: spy}.Success(net, b.X)
	spy.assertBalanced(t, "TargetedPGD.Success")
}
