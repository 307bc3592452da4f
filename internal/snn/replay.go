package snn

import (
	"fmt"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// SpikeTrainEncoder replays a pre-binned spike train: plane t of Planes
// is the network's input drive at timestep t, verbatim. It is how the
// batch forward consumes the stream binner's output — the equivalence
// reference for the streaming engine — and more generally how any
// recorded event data reaches the taped or tape-free forwards without
// re-encoding. The train is a constant, so the taped path records a
// zero-gradient op (the pixels behind the events are not reachable).
type SpikeTrainEncoder struct {
	// Planes holds one packed [N,...] plane per timestep; the network's T
	// must not exceed len(Planes).
	Planes []*tensor.SpikeTensor
}

func (e *SpikeTrainEncoder) plane(t int) *tensor.SpikeTensor {
	if t < 0 || t >= len(e.Planes) {
		panic(fmt.Sprintf("snn: spike train has %d planes, no step %d", len(e.Planes), t))
	}
	return e.Planes[t]
}

// Encode returns plane t's dense view as a constant (zero-backward) op,
// with the packed plane attached when packing is on so the first synapse
// runs the spike kernels exactly as the streaming path does.
func (e *SpikeTrainEncoder) Encode(tp *autodiff.Tape, x *autodiff.Value, t int) *autodiff.Value {
	return recordDrive(tp, e, x, t, nil)
}

// EncodeForward returns plane t's dense view and, when packing is on,
// the plane itself. The static input x is ignored — the train already is
// the input. Note the dense view is materialised and cached on the
// plane; callers pinning the streaming no-dense-input property must feed
// that path separately-binned planes.
func (e *SpikeTrainEncoder) EncodeForward(be compute.Backend, x *tensor.Tensor, t int) (*tensor.Tensor, *tensor.SpikeTensor) {
	p := e.plane(t)
	if compute.PackSpikePlanes() {
		return p.DenseOn(be), p
	}
	return p.DenseOn(be), nil
}

// Name returns "spike_train(T)".
func (e *SpikeTrainEncoder) Name() string { return fmt.Sprintf("spike_train(T=%d)", len(e.Planes)) }
