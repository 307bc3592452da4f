package snn

import (
	"fmt"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// ResetMode selects how the membrane potential is reset after a spike.
type ResetMode int

const (
	// ResetZero clamps the membrane to 0 after a spike (Norse default).
	ResetZero ResetMode = iota
	// ResetSubtract subtracts Vth from the membrane after a spike,
	// preserving the residual above threshold.
	ResetSubtract
)

// String names the reset mode.
func (m ResetMode) String() string {
	switch m {
	case ResetZero:
		return "zero"
	case ResetSubtract:
		return "subtract"
	default:
		return fmt.Sprintf("ResetMode(%d)", int(m))
	}
}

// NeuronConfig holds the structural parameters of a LIF population. Vth is
// the firing threshold the paper sweeps; Alpha is the membrane decay
// (leak) factor per step, with Alpha = 1 degenerating to a non-leaky
// integrate-and-fire neuron.
type NeuronConfig struct {
	// Vth is the firing threshold voltage. The membrane emits a spike
	// when it strictly exceeds Vth.
	Vth float64
	// Alpha is the per-step membrane decay in (0, 1]; v decays to α·v
	// before integrating the input current.
	Alpha float64
	// Reset selects the post-spike reset behaviour.
	Reset ResetMode
	// Surrogate is the backward-pass spike derivative; nil selects
	// DefaultSurrogate.
	Surrogate Surrogate
}

// Validate checks the configuration and fills defaulted fields.
func (c *NeuronConfig) Validate() error {
	if c.Vth <= 0 {
		return fmt.Errorf("snn: threshold Vth must be positive, got %g", c.Vth)
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("snn: membrane decay Alpha must be in (0,1], got %g", c.Alpha)
	}
	if c.Surrogate == nil {
		c.Surrogate = DefaultSurrogate()
	}
	return nil
}

// DefaultNeuronConfig mirrors the paper's default structural point
// (Vth, T) = (1, 64): threshold 1, leak 0.9, reset-to-zero, fast-sigmoid
// surrogate.
func DefaultNeuronConfig() NeuronConfig {
	return NeuronConfig{Vth: 1, Alpha: 0.9, Reset: ResetZero, Surrogate: DefaultSurrogate()}
}

// LIFStep advances one population of LIF neurons by one timestep on the
// tape. current is the synaptic input I[t] and membrane the previous
// state v[t−1] (any matching shapes). It returns the binary spike tensor
// s[t] and the post-reset membrane v[t], both differentiable:
//
//	pre  = α·v[t−1] + I[t]
//	s[t] = H(pre − Vth)            (surrogate derivative backward)
//	v[t] = pre·(1−s[t])            (ResetZero)
//	v[t] = pre − Vth·s[t]          (ResetSubtract)
//
// Following standard surrogate-gradient practice (STBP, Norse), the reset
// path treats s[t] as a constant: gradients flow through the reset gate's
// value, not through its dependence on pre. This keeps BPTT stable and
// matches what the paper's software stack does.
func LIFStep(tp *autodiff.Tape, cfg NeuronConfig, current, membrane *autodiff.Value) (spikes, newMembrane *autodiff.Value) {
	spikes, newMembrane, _ = step(tp, AdaptiveConfig{NeuronConfig: cfg}, current, membrane, nil)
	return spikes, newMembrane
}

// step is the taped neuron step behind LIFStep, ALIFStep and
// Network.Logits: FusedStep into fresh tape-owned slabs, keeping v[t−1]
// intact and recording the surrogate, then the spike and membrane
// pullbacks. A nil excess runs a plain LIF population; otherwise the
// adapted excess is returned in a new tensor.
func step(tp *autodiff.Tape, cfg AdaptiveConfig, current, membrane *autodiff.Value, excess *tensor.Tensor) (spikes, newMembrane *autodiff.Value, newExcess *tensor.Tensor) {
	if !current.Data.SameShape(membrane.Data) || excess != nil && !current.Data.SameShape(excess) {
		panic(fmt.Sprintf("snn: neuron step shape mismatch: current %v, membrane %v", current.Data.Shape(), membrane.Data.Shape()))
	}
	n := current.Data.Len()
	shape := current.Data.Shape()
	be := tp.Backend()

	// One slab for the three tape-lived arrays, drawn from the backend
	// arena and registered with the tape, so Tape.Release recycles it
	// once the step's values are dead: a T-step unrolled network cycles
	// through a working set of slabs instead of holding every timestep's
	// activations. FusedStep fully overwrites all three sections, so
	// the dirty pooled memory never leaks into results.
	slab := be.Get(3 * n)
	tp.OwnBuffer(slab)
	buf := StepBuffers{
		Cur:    current.Data.Data(),
		MemIn:  membrane.Data.Data(),
		Spk:    slab[0*n : 1*n : 1*n],
		MemOut: slab[1*n : 2*n : 2*n],
		Surr:   slab[2*n : 3*n : 3*n],
	}
	if excess != nil {
		// The adaptation path is out-of-graph state (ALIFState).
		newExcess = tensor.New(shape...)
		buf.ExIn, buf.ExOut = excess.Data(), newExcess.Data()
	}
	// The step is the producer of the network's binary planes: when the
	// spike dispatch is on it packs the plane while it thresholds, and a
	// dense-kernel run pays no packing cost. The plane is tape-lived
	// like the slab; every word is stored exactly once.
	rows := shape[0]
	packOn := compute.PackSpikePlanes()
	if packOn {
		buf.Bits = compute.GetUint64(rows * ((n/rows + 63) / 64))
		tp.OwnWords(buf.Bits)
		buf.Counts = make([]int, rows)
	}
	FusedStep(be, cfg, rows, &buf)

	spk, surr := buf.Spk, buf.Surr
	spikes = tp.NewOp(tensor.FromSlice(spk, shape...), func(g *tensor.Tensor) {
		// ds/dpre = surrogate; dpre/dI = 1; dpre/dv_prev = α.
		gd := g.Data()
		dI, dV := stepScratch(be, n)
		be.ParallelFor(n, lifGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dI[i] = gd[i] * surr[i]
				dV[i] = dI[i] * cfg.Alpha
			}
		})
		current.AccumGrad(tensor.FromSlice(dI, shape...))
		membrane.AccumGrad(tensor.FromSlice(dV, shape...))
		releaseStepScratch(be, dI, dV)
	}, current, membrane)
	// Attach the plane packed inline so every synapse downstream — and
	// the weight-gradient pullbacks — run the spike kernels.
	if packOn {
		spikes.AttachSpikes(tensor.NewSpikeTensorFromBits(buf.Bits, buf.Counts, shape...))
	}

	newMembrane = tp.NewOp(tensor.FromSlice(buf.MemOut, shape...), func(g *tensor.Tensor) {
		// dv_out/dpre with the reset gate detached:
		//   ResetZero:     (1 − s)
		//   ResetSubtract: 1
		gd := g.Data()
		dI, dV := stepScratch(be, n)
		be.ParallelFor(n, lifGrain, func(lo, hi int) {
			if cfg.Reset == ResetZero {
				for i := lo; i < hi; i++ {
					dI[i] = gd[i] * (1 - spk[i])
					dV[i] = dI[i] * cfg.Alpha
				}
			} else {
				for i := lo; i < hi; i++ {
					dI[i] = gd[i]
					dV[i] = gd[i] * cfg.Alpha
				}
			}
		})
		current.AccumGrad(tensor.FromSlice(dI, shape...))
		membrane.AccumGrad(tensor.FromSlice(dV, shape...))
		releaseStepScratch(be, dI, dV)
	}, current, membrane)
	return spikes, newMembrane, newExcess
}

// LIStep advances a non-spiking leaky integrator (Norse's LICell), used as
// a voltage readout layer: v[t] = α·v[t−1] + I[t]. It is fully
// differentiable with no surrogate needed.
func LIStep(tp *autodiff.Tape, alpha float64, current, membrane *autodiff.Value) *autodiff.Value {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("snn: LIStep alpha %g out of (0,1]", alpha))
	}
	return tp.Add(tp.Scale(membrane, alpha), current)
}
