package serve

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"snnsec/internal/compute"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// The forward-equivalence harness: the tape-free engine must reproduce
// the taped forward (train.LogitsOn) bit for bit, across neuron models,
// readout modes, topologies, spike densities and backends. This is the
// pin that lets every other serve feature (batching, caching, the CLI)
// trust the engine.

const (
	eqC    = 1 // input channels
	eqHW   = 8 // input height/width
	eqT    = 4 // time window
	eqN    = 3 // batch size
	eqOut  = 4 // classes
	eqSeed = 0x5eed
)

// eqTopology builds the hidden stack + readout for one structural case.
type eqTopology struct {
	name   string
	hidden func(r *rand.Rand) []nn.Layer
	// readoutIn is the flattened feature count feeding the readout.
	readoutIn int
}

var eqTopologies = []eqTopology{
	{
		// conv → LIF → avgpool+flatten+linear → LIF → linear readout:
		// the LeNet-style shape with average pooling.
		name: "pooled_avg",
		hidden: func(r *rand.Rand) []nn.Layer {
			return []nn.Layer{
				nn.NewConv2D(r, eqC, 2, 3, 1, 1), // [N,2,8,8]
				nn.NewSequential(nn.AvgPool{K: 2}, nn.Flatten{}, nn.NewLinear(r, 2*4*4, 16)),
			}
		},
		readoutIn: 16,
	},
	{
		// Same stack with max pooling, which threads a packed spike
		// plane *through* the pool (SpikeMaxPool2DOn re-emits one).
		name: "pooled_max",
		hidden: func(r *rand.Rand) []nn.Layer {
			return []nn.Layer{
				nn.NewConv2D(r, eqC, 2, 3, 1, 1),
				nn.NewSequential(nn.MaxPool{K: 2}, nn.Flatten{}, nn.NewLinear(r, 2*4*4, 16)),
			}
		},
		readoutIn: 16,
	},
	{
		// Pool-free: flatten straight into dense layers.
		name: "pool_free",
		hidden: func(r *rand.Rand) []nn.Layer {
			return []nn.Layer{
				nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, eqC*eqHW*eqHW, 24)),
				nn.NewLinear(r, 24, 16),
			}
		},
		readoutIn: 16,
	},
}

// eqNetwork assembles a full spiking classifier for one case. gain is
// the Poisson rate on an all-ones input, i.e. the exact input spike
// density.
func eqNetwork(top eqTopology, adapt bool, mode snn.ReadoutMode, gain float64) *snn.Network {
	r := rand.New(rand.NewPCG(eqSeed, 7))
	layers := top.hidden(r)
	hidden := make([]snn.Layer, len(layers))
	for i, l := range layers {
		hidden[i] = snn.Layer{
			Syn: l,
			// Reset modes alternate so both are always exercised.
			Cfg: snn.NeuronConfig{Vth: 0.3, Alpha: 0.9, Reset: snn.ResetMode(i % 2)},
		}
		if adapt {
			hidden[i].Adapt = &snn.Adaptation{Step: 0.2, Decay: 0.8}
		}
	}
	return &snn.Network{
		Encoder:    snn.NewPoissonEncoder(gain, eqSeed, 11),
		Hidden:     hidden,
		Readout:    nn.NewLinear(r, top.readoutIn, eqOut),
		ReadoutCfg: snn.NeuronConfig{Vth: 0.3, Alpha: 0.9},
		Mode:       mode,
		T:          eqT,
		LogitScale: 10,
	}
}

// eqInput is all ones, so the Poisson gain is the spike density.
func eqInput() *tensor.Tensor {
	x := tensor.New(eqN, eqC, eqHW, eqHW)
	d := x.Data()
	for i := range d {
		d[i] = 1
	}
	return x
}

// eqDrive is one input drive of the equivalence suite: an encoder and
// the input it encodes.
type eqDrive struct {
	name string
	enc  func() snn.Encoder
	x    *tensor.Tensor
}

// eqDrives pins the exact input spike densities of the unnormalised
// Poisson encoder on an all-ones input, then every other encoder on a
// random input that reaches both of the Poisson and latency clamps.
func eqDrives() []eqDrive {
	var drives []eqDrive
	for _, gain := range []float64{0, 0.1, 0.5, 1} {
		drives = append(drives, eqDrive{
			name: fmt.Sprintf("density=%v", gain),
			enc:  func() snn.Encoder { return snn.NewPoissonEncoder(gain, eqSeed, 11) },
			x:    eqInput(),
		})
	}
	xr := tensor.RandU(rand.New(rand.NewPCG(eqSeed, 17)), -0.5, 2.5, eqN, eqC, eqHW, eqHW)
	return append(drives,
		eqDrive{"current_gain=2", func() snn.Encoder { return snn.ConstantCurrentEncoder{Gain: 2} }, xr},
		eqDrive{"poisson_normalised", func() snn.Encoder { return snn.NewNormalizedPoissonEncoder(1, 0.1307, 0.3081, eqSeed, 11) }, xr},
		eqDrive{"latency", func() snn.Encoder { return snn.LatencyEncoder{Gain: 0.5, T: eqT} }, xr},
	)
}

// runBoth evaluates the taped and the tape-free forward on the same
// network and input, reseeding a Poisson generator before each pass so
// both consume identical spike trains.
func runBoth(t *testing.T, net *snn.Network, be compute.Backend, x *tensor.Tensor) (taped, free *tensor.Tensor) {
	t.Helper()
	reseed := func() {
		if enc, ok := net.Encoder.(*snn.PoissonEncoder); ok {
			enc.Reseed(eqSeed, 11)
		}
	}
	reseed()
	taped = train.LogitsOn(be, net, x)
	eng, err := NewEngine(net, be, x.Shape()[1:])
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	reseed()
	free, err = eng.Logits(x)
	if err != nil {
		t.Fatalf("Engine.Logits: %v", err)
	}
	return taped, free
}

func assertBitIdentical(t *testing.T, taped, free *tensor.Tensor) {
	t.Helper()
	td, fd := taped.Data(), free.Data()
	if len(td) != len(fd) {
		t.Fatalf("logit count: taped %v, tape-free %v", taped.Shape(), free.Shape())
	}
	for i := range td {
		if math.Float64bits(td[i]) != math.Float64bits(fd[i]) {
			t.Fatalf("logit %d differs: taped %v (%#x) vs tape-free %v (%#x)",
				i, td[i], math.Float64bits(td[i]), fd[i], math.Float64bits(fd[i]))
		}
	}
}

// TestForwardEquivalence is the pinning suite: every combination of
// topology × neuron model × readout mode × input drive (encoder and
// spike density) × backend must be bit-identical between the taped and
// tape-free paths.
func TestForwardEquivalence(t *testing.T) {
	backends := map[string]compute.Backend{
		"serial":   compute.NewSerial(),
		"parallel": compute.NewParallel(4),
	}
	for _, top := range eqTopologies {
		for _, adapt := range []bool{false, true} {
			neuron := "lif"
			if adapt {
				neuron = "alif"
			}
			for _, mode := range []snn.ReadoutMode{snn.ReadoutSpikeCount, snn.ReadoutMembrane} {
				for _, d := range eqDrives() {
					for beName, be := range backends {
						name := fmt.Sprintf("%s/%s/%s/%s/%s", top.name, neuron, mode, d.name, beName)
						t.Run(name, func(t *testing.T) {
							net := eqNetwork(top, adapt, mode, 0)
							net.Encoder = d.enc()
							taped, free := runBoth(t, net, be, d.x)
							assertBitIdentical(t, taped, free)
						})
					}
				}
			}
		}
	}
}

// TestForwardEquivalenceDenseDispatch pins equivalence when spike-plane
// packing is globally off (dense dispatch): the engine must follow the
// same policy switch the taped ops consult.
func TestForwardEquivalenceDenseDispatch(t *testing.T) {
	old := compute.ActiveDispatchPolicy()
	dense := old
	dense.Mode = compute.DispatchDense
	compute.SetDispatchPolicy(dense)
	defer compute.SetDispatchPolicy(old)
	x := eqInput()
	for _, top := range eqTopologies {
		t.Run(top.name, func(t *testing.T) {
			taped, free := runBoth(t, eqNetwork(top, false, snn.ReadoutSpikeCount, 0.5), nil, x)
			assertBitIdentical(t, taped, free)
		})
	}
}

// TestForwardEquivalenceCNN covers the non-spiking path: the engine's
// dense evaluator vs the taped forward on a ReLU CNN with both pool
// kinds and dropout in eval mode.
func TestForwardEquivalenceCNN(t *testing.T) {
	r := rand.New(rand.NewPCG(eqSeed, 13))
	model := nn.NewSequential(
		nn.NewConv2D(r, eqC, 2, 3, 1, 1),
		nn.ReLU{},
		nn.MaxPool{K: 2},
		nn.NewConv2D(r, 2, 3, 3, 1, 1),
		nn.ReLU{},
		nn.AvgPool{K: 2},
		nn.Flatten{},
		&nn.Dropout{P: 0.5},
		nn.NewLinear(r, 3*2*2, eqOut),
	)
	x := tensor.New(eqN, eqC, eqHW, eqHW)
	d := x.Data()
	rr := rand.New(rand.NewPCG(3, 4))
	for i := range d {
		d[i] = rr.Float64()*2 - 1
	}
	taped := train.LogitsOn(nil, model, x)
	eng, err := NewEngine(model, nil, x.Shape()[1:])
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	free, err := eng.Logits(x)
	if err != nil {
		t.Fatalf("Engine.Logits: %v", err)
	}
	assertBitIdentical(t, taped, free)
}

// TestEngineRejectsUnsupported pins construction-time validation: models
// the tape-free evaluator cannot mirror must fail at NewEngine, not
// mid-request.
func TestEngineRejectsUnsupported(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	if _, err := NewEngine(nn.NewSequential(&nn.Dropout{P: 0.5, Training: true}, nn.NewLinear(r, 4, 2)), nil, []int{4}); err == nil {
		t.Fatal("want error for dropout in training mode")
	}
	if _, err := NewEngine(nn.NewSequential(nn.NewLinear(r, 4, 2)), nil, nil); err == nil {
		t.Fatal("want error for empty sample shape")
	}
}

// TestEngineInputValidation pins shape checking on the request path.
func TestEngineInputValidation(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	eng, err := NewEngine(nn.NewSequential(nn.NewLinear(r, 4, 2)), nil, []int{4})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng.Logits(tensor.New(2, 5)); err == nil {
		t.Fatal("want error for wrong sample length")
	}
	if _, err := eng.Logits(tensor.New(2, 2, 2)); err == nil {
		t.Fatal("want error for wrong rank")
	}
	if _, err := eng.Logits(nil); err == nil {
		t.Fatal("want error for nil input")
	}
}
