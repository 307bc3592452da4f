package snn

import (
	"fmt"
	"math/rand/v2"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// Encoder converts a static input image into the per-timestep input of
// the spiking network. Encode is called once per timestep t ∈ [0, T);
// implementations must be differentiable (exactly or via a
// straight-through estimator) so the white-box attacker can reach the
// pixels.
type Encoder interface {
	// Encode returns the input drive at timestep t for the static input
	// x (shape [N,C,H,W] or [N,D]).
	Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value
	// EncodeForward returns the same drive without a tape, for the
	// tape-free inference engine: the dense tensor and, when spike
	// packing is on and the drive is binary, its packed plane (nil
	// otherwise). The spike encoders' Encode is EncodeForward plus the
	// recorded pullback, so both consume any internal randomness
	// identically and emit the same bits.
	EncodeForward(be compute.Backend, x *tensor.Tensor, t int) (*tensor.Tensor, *tensor.SpikeTensor)
	// Name identifies the encoder in reports.
	Name() string
}

// recordDrive records enc's forward drive for step t on the tape, with
// the packed plane attached so the first synapse runs the spike
// kernels. The pullback accumulates dx[i] = grad(g[i], x[i]) into x; a
// nil grad records a constant drive (zero gradient).
func recordDrive(tp *autodiff.Tape, enc Encoder, x *autodiff.Value, t int, grad func(g, xi float64) float64) *autodiff.Value {
	out, plane := enc.EncodeForward(tp.Backend(), x.Data, t)
	v := tp.NewOp(out, func(g *tensor.Tensor) {
		if grad == nil {
			return
		}
		gd, xd := g.Data(), x.Data.Data()
		dx := make([]float64, len(gd))
		for i := range dx {
			dx[i] = grad(gd[i], xd[i])
		}
		x.AccumGrad(tensor.FromSlice(dx, x.Data.Shape()...))
	}, x)
	if plane != nil {
		v.AttachSpikes(plane)
	}
	return v
}

// withPlane pairs a binary drive with its packed plane when spike
// packing is on.
func withPlane(be compute.Backend, out *tensor.Tensor) (*tensor.Tensor, *tensor.SpikeTensor) {
	if compute.PackSpikePlanes() {
		return out, tensor.PackSpikesOn(be, out)
	}
	return out, nil
}

// ConstantCurrentEncoder injects the (scaled) analog input as synaptic
// current at every timestep — Norse's constant-current LIF encoding. The
// first spiking layer then converts intensity to rate through its own LIF
// dynamics. This encoder is exactly differentiable, making it the default
// for white-box attack studies.
type ConstantCurrentEncoder struct {
	// Gain multiplies the input before injection.
	Gain float64
}

// Encode returns Gain·x regardless of t.
func (e ConstantCurrentEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	if e.Gain == 1 {
		return x
	}
	return tp.Scale(x, e.Gain)
}

// EncodeForward returns Gain·x regardless of t. The analog drive is not
// binary, so it carries no packed plane.
func (e ConstantCurrentEncoder) EncodeForward(be compute.Backend, x *tensor.Tensor, t int) (*tensor.Tensor, *tensor.SpikeTensor) {
	if e.Gain == 1 {
		return x, nil
	}
	return tensor.ScaleOn(be, x, e.Gain), nil
}

// Name returns "constant_current(gain)".
func (e ConstantCurrentEncoder) Name() string {
	return fmt.Sprintf("constant_current(gain=%g)", e.Gain)
}

// PoissonEncoder emits rate-coded Bernoulli spike trains: at each step a
// pixel spikes with probability clamp(Gain·(Scale·x + Offset), 0, 1).
// Scale and Offset (default 1 and 0) de-normalise inputs that live in
// MNIST-normalised units back into [0,1] rate space. The backward pass
// uses the straight-through estimator dE[s]/dx = Gain·Scale inside the
// unsaturated region, so PGD still reaches the pixels. The generator is
// owned by the encoder and must be reseeded (Reseed) to reproduce a
// specific spike train.
type PoissonEncoder struct {
	Gain   float64
	Scale  float64
	Offset float64
	rng    *rand.Rand
}

// NewPoissonEncoder builds a rate encoder with a deterministic generator
// and identity de-normalisation.
func NewPoissonEncoder(gain float64, seed1, seed2 uint64) *PoissonEncoder {
	return &PoissonEncoder{Gain: gain, Scale: 1, rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// NewNormalizedPoissonEncoder builds a rate encoder for inputs in
// MNIST-normalised units: the rate is Gain·(std·x + mean).
func NewNormalizedPoissonEncoder(gain, mean, std float64, seed1, seed2 uint64) *PoissonEncoder {
	return &PoissonEncoder{Gain: gain, Scale: std, Offset: mean, rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// Reseed resets the spike-train generator.
func (e *PoissonEncoder) Reseed(seed1, seed2 uint64) {
	e.rng = rand.New(rand.NewPCG(seed1, seed2))
}

// scale returns Scale, defaulting a zero Scale to 1.
func (e *PoissonEncoder) scale() float64 {
	if e.Scale == 0 {
		return 1
	}
	return e.Scale
}

// rate is the unclamped spike probability of input value xi.
func (e *PoissonEncoder) rate(scale, xi float64) float64 {
	return e.Gain * (scale*xi + e.Offset)
}

// Encode samples a Bernoulli spike tensor from the rate
// clamp(Gain·(Scale·x+Offset), 0, 1).
func (e *PoissonEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	scale := e.scale()
	return recordDrive(tp, e, x, t, func(g, xi float64) float64 {
		// Straight-through: d rate/dx = Gain·Scale inside the linear
		// region, zero where the rate saturates.
		if p := e.rate(scale, xi); p > 0 && p < 1 {
			return g * e.Gain * scale
		}
		return 0
	})
}

// EncodeForward samples the spike train: one generator draw per element.
// Rate-coded trains are binary, so packing them lets the first synapse
// run the spike kernels and the whole forward pass stays in packed form
// from the pixels to the readout.
func (e *PoissonEncoder) EncodeForward(be compute.Backend, x *tensor.Tensor, t int) (*tensor.Tensor, *tensor.SpikeTensor) {
	scale := e.scale()
	xd := x.Data()
	spikes := make([]float64, len(xd))
	for i := range xd {
		p := e.rate(scale, xd[i])
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		if e.rng.Float64() < p {
			spikes[i] = 1
		}
	}
	return withPlane(be, tensor.FromSlice(spikes, x.Shape()...))
}

// Name returns "poisson(gain)".
func (e *PoissonEncoder) Name() string { return fmt.Sprintf("poisson(gain=%g)", e.Gain) }

// LatencyEncoder emits a single spike per pixel whose timing encodes
// intensity: brighter pixels spike earlier. A pixel with normalised
// intensity p ∈ (0,1] spikes at step floor((1−p)·(T−1)); non-positive
// intensities never spike. Backward uses a straight-through estimator on
// the spiking step. Included for the encoding ablation (Bagheri et al.
// study encoding sensitivity); the paper itself uses rate coding.
type LatencyEncoder struct {
	Gain float64
	// T must match the network's time window so spike times span it.
	T int
}

// fires reports whether a pixel of value xi spikes at step t: intensity
// p = Gain·xi clamped to (0,1] spikes at floor((1−p)·(T−1)).
func (e LatencyEncoder) fires(xi float64, t int) bool {
	p := e.Gain * xi
	if p <= 0 {
		return false
	}
	if p > 1 {
		p = 1
	}
	return int((1-p)*float64(e.T-1)) == t
}

// Encode emits the latency-coded spikes for step t, with the
// straight-through gradient Gain on the spiking pixels.
func (e LatencyEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	return recordDrive(tp, e, x, t, func(g, xi float64) float64 {
		if e.fires(xi, t) {
			return g * e.Gain
		}
		return 0
	})
}

// EncodeForward emits the latency-coded spikes for step t. A step is
// binary (at most one spike per pixel), so it packs like the rate code.
func (e LatencyEncoder) EncodeForward(be compute.Backend, x *tensor.Tensor, t int) (*tensor.Tensor, *tensor.SpikeTensor) {
	if e.T <= 0 {
		panic("snn: LatencyEncoder requires positive T")
	}
	xd := x.Data()
	spikes := make([]float64, len(xd))
	for i := range xd {
		if e.fires(xd[i], t) {
			spikes[i] = 1
		}
	}
	return withPlane(be, tensor.FromSlice(spikes, x.Shape()...))
}

// Name returns "latency(gain,T)".
func (e LatencyEncoder) Name() string { return fmt.Sprintf("latency(gain=%g,T=%d)", e.Gain, e.T) }
