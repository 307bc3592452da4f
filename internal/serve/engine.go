// Package serve is the inference side of the repository: a tape-free
// forward-only engine that runs a trained classifier with zero autodiff
// allocations, and an HTTP/line-JSON server on top of it with request
// coalescing, an LRU model cache, per-request deadlines and
// bounded-queue backpressure.
//
// The engine mirrors the taped forward pass kernel for kernel — same
// density-adaptive sparse-vs-dense dispatch per call, same accumulation
// order — and runs the very neuron step (snn.FusedStep) and encoder
// sampling loops (Encoder.EncodeForward) the taped forward runs, so its
// logits are bit-identical to train.Predict's (the forward-equivalence
// suite in engine_test.go pins the layer dispatch and readout). What it
// drops is everything the tape exists for: node and Value allocations,
// surrogate passes, retained per-timestep activations. Membrane, spike
// and accumulator state live in backend-arena slabs updated in place
// and reused across all T timesteps.
package serve

import (
	"fmt"
	"sync"

	"snnsec/internal/compute"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// act is an activation flowing between layers: the dense tensor plus the
// packed spike plane when the producer emitted a binary one. Each kernel
// call consults the dispatch policy for the plane's density, exactly as
// the taped ops do. The streaming input path feeds spike-only
// activations (t == nil): the binner packed the events directly, so no
// dense view of the input exists — and must never be materialised.
type act struct {
	t  *tensor.Tensor
	sp *tensor.SpikeTensor
}

func (a act) dims() int {
	if a.t != nil {
		return a.t.Dims()
	}
	return a.sp.Dims()
}

func (a act) dim(i int) int {
	if a.t != nil {
		return a.t.Dim(i)
	}
	return a.sp.Dim(i)
}

func (a act) shape() []int {
	if a.t != nil {
		return a.t.Shape()
	}
	return a.sp.Shape()
}

// dense returns the dense view, materialising (and caching) it from the
// spike plane for spike-only activations. Only the K>64 pool fallbacks
// reach this on the streaming path — pools larger than one word are
// unsupported by the spike kernels and unreachable in the stock models.
func (a act) dense(be compute.Backend) *tensor.Tensor {
	if a.t != nil {
		return a.t
	}
	return a.sp.DenseOn(be)
}

// spikeFor mirrors autodiff's per-call sparse-vs-dense choice: the plane
// when the dispatch policy selects the spike kernel for its density, nil
// for the dense kernel. Bit-identical either way; pure speed. A
// spike-only activation always elects the spike kernel — its dense
// operand was never materialised, and the spike kernels are pinned
// bit-identical to the dense ones, so forcing them preserves the
// equivalence contract.
func (a act) spikeFor(f compute.KernelFamily) *tensor.SpikeTensor {
	if a.sp == nil {
		return nil
	}
	if a.t == nil {
		return a.sp
	}
	if !compute.UseSparse(f, a.sp.Density()) {
		return nil
	}
	return a.sp
}

// Engine runs a classifier forward without a tape. One Engine serves one
// model; calls are serialised (an SNN's rate encoder is a stateful
// generator, and the state slabs are per-engine), so concurrency comes
// from batching requests together, not from parallel forwards.
type Engine struct {
	mu     sync.Mutex
	be     compute.Backend
	net    *snn.Network // spiking path when non-nil
	dense  nn.Layer     // non-spiking path otherwise
	sample []int        // per-sample input shape, e.g. [1,H,W]
}

// NewEngine validates that the model is built only from layer types the
// tape-free evaluator knows how to mirror and returns an engine bound to
// be (nil selects compute.Default()). sample is the per-sample input
// shape (without the batch dimension).
func NewEngine(model nn.Classifier, be compute.Backend, sample []int) (*Engine, error) {
	if be == nil {
		be = compute.Default()
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("serve: empty sample shape")
	}
	for _, d := range sample {
		if d <= 0 {
			return nil, fmt.Errorf("serve: bad sample shape %v", sample)
		}
	}
	e := &Engine{be: be, sample: append([]int(nil), sample...)}
	switch m := model.(type) {
	case *snn.Network:
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if m.Mode != snn.ReadoutSpikeCount && m.Mode != snn.ReadoutMembrane {
			return nil, fmt.Errorf("serve: unknown readout mode %v", m.Mode)
		}
		for i := range m.Hidden {
			if err := checkSupported(m.Hidden[i].Syn); err != nil {
				return nil, fmt.Errorf("serve: hidden layer %d: %w", i, err)
			}
		}
		if err := checkSupported(m.Readout); err != nil {
			return nil, fmt.Errorf("serve: readout: %w", err)
		}
		e.net = m
	case nn.Layer:
		if err := checkSupported(m); err != nil {
			return nil, err
		}
		e.dense = m
	default:
		return nil, fmt.Errorf("serve: unsupported classifier %T", model)
	}
	return e, nil
}

// checkSupported walks a layer tree and rejects anything the type switch
// in forwardLayer does not cover, so unsupported models fail at engine
// construction instead of mid-request.
func checkSupported(l nn.Layer) error {
	switch v := l.(type) {
	case *nn.Sequential:
		for _, sub := range v.Layers {
			if err := checkSupported(sub); err != nil {
				return err
			}
		}
		return nil
	case *nn.Linear, *nn.Conv2D, nn.ReLU, nn.AvgPool, nn.MaxPool, nn.Flatten:
		return nil
	case *nn.Dropout:
		if v.Training {
			return fmt.Errorf("serve: dropout layer is in training mode")
		}
		return nil
	default:
		return fmt.Errorf("serve: unsupported layer type %T", l)
	}
}

// SampleShape returns the per-sample input shape the engine expects.
func (e *Engine) SampleShape() []int { return append([]int(nil), e.sample...) }

// Logits runs the forward pass on x [N, sample...] and returns the
// [N, classes] scores, bit-identical to the taped train.Predict
// logits.
func (e *Engine) Logits(x *tensor.Tensor) (out *tensor.Tensor, err error) {
	if err := e.checkInput(x); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("serve: forward failed: %v", r)
		}
	}()
	if e.net != nil {
		return e.snnLogits(x), nil
	}
	return e.forwardLayer(e.dense, act{t: x}).t, nil
}

// Predict returns the argmax class per sample.
func (e *Engine) Predict(x *tensor.Tensor) ([]int, error) {
	logits, err := e.Logits(x)
	if err != nil {
		return nil, err
	}
	return tensor.ArgmaxRowsOn(e.be, logits), nil
}

func (e *Engine) checkInput(x *tensor.Tensor) error {
	if x == nil || x.Dims() != len(e.sample)+1 || x.Dim(0) <= 0 {
		return fmt.Errorf("serve: input must be [N,%v]-shaped", e.sample)
	}
	for i, d := range e.sample {
		if x.Dim(i+1) != d {
			return fmt.Errorf("serve: input shape %v does not match sample shape %v", x.Shape(), e.sample)
		}
	}
	return nil
}

// forwardLayer mirrors each nn layer's taped Forward with the same
// kernel choices (see autodiff/ops.go), minus the recording. Spike-only
// activations (a.t == nil, the streaming input path) take the spike
// kernel in every branch that has one; the remaining branches are
// either identity on binary planes (ReLU, Dropout) or pure reshapes
// (Flatten), so no dense view is ever materialised for them.
func (e *Engine) forwardLayer(l nn.Layer, a act) act {
	be := e.be
	switch v := l.(type) {
	case *nn.Sequential:
		for _, sub := range v.Layers {
			a = e.forwardLayer(sub, a)
		}
		return a
	case *nn.Linear:
		if a.dims() != 2 || a.dim(1) != v.In {
			panic(fmt.Sprintf("serve: Linear(%d→%d) got input %v", v.In, v.Out, a.shape()))
		}
		var out *tensor.Tensor
		if sp := a.spikeFor(compute.KernelMatMul); sp != nil {
			out = tensor.SpikeMatMulOn(be, sp, v.W.Data)
		} else {
			out = tensor.MatMulOn(be, a.t, v.W.Data)
		}
		return act{t: tensor.AddRowVectorOn(be, out, v.B.Data)}
	case *nn.Conv2D:
		if a.dims() != 4 || a.dim(1) != v.InChannels {
			panic(fmt.Sprintf("serve: Conv2D(%d→%d) got input %v", v.InChannels, v.OutChannels, a.shape()))
		}
		if sp := a.spikeFor(compute.KernelConv); sp != nil {
			return act{t: tensor.SpikeConv2DOn(be, sp, v.W.Data, v.B.Data, v.Conv)}
		}
		return act{t: tensor.Conv2DOn(be, a.t, v.W.Data, v.B.Data, v.Conv)}
	case nn.ReLU:
		if a.t == nil {
			// ReLU is the identity on a binary plane; keep it packed.
			return a
		}
		return act{t: tensor.ReLUOn(be, a.t)}
	case nn.AvgPool:
		if sp := a.spikeFor(compute.KernelPool); sp != nil && v.K <= 64 {
			return act{t: tensor.SpikeAvgPool2DOn(be, sp, v.K)}
		}
		return act{t: tensor.AvgPool2DOn(be, a.dense(be), v.K)}
	case nn.MaxPool:
		if sp := a.spikeFor(compute.KernelPool); sp != nil && v.K <= 64 {
			out, _, spOut := tensor.SpikeMaxPool2DOn(be, sp, v.K)
			return act{t: out, sp: spOut}
		}
		out, _ := tensor.MaxPool2DOn(be, a.dense(be), v.K)
		return act{t: out}
	case nn.Flatten:
		n := a.dim(0)
		if a.t == nil {
			return act{sp: a.sp.Reshape(n, a.sp.Len()/n)}
		}
		out := a.t.Reshape(n, -1)
		res := act{t: out}
		if a.sp != nil && out.Dim(0) == a.t.Dim(0) {
			res.sp = a.sp.Reshape(out.Shape()...)
		}
		return res
	case *nn.Dropout:
		if v.Training {
			panic("serve: dropout layer is in training mode")
		}
		return a
	default:
		panic(fmt.Sprintf("serve: unsupported layer type %T", l))
	}
}

// popState is the per-population slab set the SNN loop reuses across all
// T timesteps: membrane (and threshold excess for ALIF), the spike
// output, and the packed-plane storage. They live in the neuron step's
// own argument struct, which is built once per population, so a step
// only sets the input current: MemIn and MemOut alias the membrane
// slab, and ExIn and ExOut the excess slab (nil for plain LIF).
type popState struct {
	buf   snn.StepBuffers
	shape []int
	rows  int
}

func (e *Engine) newPopState(be compute.Backend, shape []int, adaptive, pack bool) *popState {
	n := 1
	for _, d := range shape {
		n *= d
	}
	st := &popState{shape: append([]int(nil), shape...), rows: shape[0]}
	b := &st.buf
	b.MemIn = be.Get(n)
	clear(b.MemIn)
	b.MemOut = b.MemIn
	b.Spk = be.Get(n)
	if adaptive {
		b.ExIn = be.Get(n)
		clear(b.ExIn)
		b.ExOut = b.ExIn
	}
	if pack {
		rowLen := n / st.rows
		words := (rowLen + 63) / 64
		b.Bits = compute.GetUint64(st.rows * words)
		b.Counts = make([]int, st.rows)
	}
	return st
}

// step advances the population one timestep on input current cur,
// updating its state slabs in place (no surrogate: nothing is recorded).
func (st *popState) step(be compute.Backend, cfg snn.AdaptiveConfig, cur []float64) {
	st.buf.Cur = cur
	snn.FusedStep(be, cfg, st.rows, &st.buf)
}

func (st *popState) release(be compute.Backend) {
	be.Put(st.buf.MemIn)
	be.Put(st.buf.Spk)
	if st.buf.ExIn != nil {
		be.Put(st.buf.ExIn)
	}
	if st.buf.Bits != nil {
		compute.PutUint64(st.buf.Bits)
	}
}

// accum is a running elementwise sum of per-timestep readout
// contributions in an arena slab. The first contribution is copied, the
// rest added in place — acc[i] += c[i] reads the old accumulator first,
// matching the taped Add(acc, contribution) operand order bit for bit.
type accum struct {
	slab []float64
	t    *tensor.Tensor
	n    int // timesteps accumulated
}

func (ac *accum) add(be compute.Backend, contribution []float64, shape []int) {
	if ac.slab == nil {
		ac.slab = be.Get(len(contribution))
	}
	if ac.n == 0 {
		copy(ac.slab, contribution)
		ac.t = tensor.FromSlice(ac.slab, shape...)
	} else {
		tensor.AddIntoOn(be, ac.t, tensor.FromSlice(contribution, shape...))
	}
	ac.n++
}

func (ac *accum) release(be compute.Backend) {
	if ac.slab != nil {
		be.Put(ac.slab)
		ac.slab = nil
		ac.t = nil
	}
	ac.n = 0
}

// snnState is the complete mutable state of one SNN forward: per-hidden
// population slabs, the readout state for either mode, and the logit
// accumulators. snnLogits owns one for the duration of a call; a
// StatefulRunner keeps one alive across window boundaries.
type snnState struct {
	states   []*popState
	outState *popState      // readout LIF population (spike-count mode)
	outMemT  *tensor.Tensor // readout LI state (membrane mode)
	acc      accum          // cumulative since construction / Reset
	win      *accum         // per-window accumulator (streaming only)
}

func (e *Engine) newSNNState() *snnState {
	return &snnState{states: make([]*popState, len(e.net.Hidden))}
}

func (st *snnState) release(be compute.Backend) {
	for i, ps := range st.states {
		if ps != nil {
			ps.release(be)
			st.states[i] = nil
		}
	}
	if st.outState != nil {
		st.outState.release(be)
		st.outState = nil
	}
	st.outMemT = nil
	st.acc.release(be)
	if st.win != nil {
		st.win.release(be)
	}
}

// stepSNN advances the network one timestep on input activation a:
// hidden synapses + the shared LIF/ALIF neuron step, then the readout,
// accumulating the contribution into st's accumulator(s). This is the
// shared loop body of the batch forward (snnLogits) and the streaming
// forward (StatefulRunner.Step); keeping it single-sourced is what makes
// their bit-identity a structural property rather than a coincidence.
func (e *Engine) stepSNN(st *snnState, a act, packOn bool) {
	nw := e.net
	be := e.be
	for l := range nw.Hidden {
		cur := e.forwardLayer(nw.Hidden[l].Syn, a).t
		ps := st.states[l]
		if ps == nil {
			ps = e.newPopState(be, cur.Shape(), nw.Hidden[l].Adapt != nil, packOn)
			st.states[l] = ps
		}
		ps.step(be, nw.Hidden[l].Neuron(), cur.Data())
		a = act{t: tensor.FromSlice(ps.buf.Spk, ps.shape...)}
		if packOn {
			// A fresh header per step over the reused word slab: the
			// popcount index is rebuilt by the fused step, and a new
			// header keeps the lazily cached density/dense views from
			// leaking across timesteps.
			a.sp = tensor.NewSpikeTensorFromBits(ps.buf.Bits, ps.buf.Counts, ps.shape...)
		}
	}
	out := e.forwardLayer(nw.Readout, a).t
	var contribution []float64
	switch nw.Mode {
	case snn.ReadoutSpikeCount:
		if st.outState == nil {
			// The readout plane feeds only the elementwise accumulator,
			// so packing it would be pure overhead — skipping it cannot
			// change a result (the taped path packs but never consults
			// the plane either).
			st.outState = e.newPopState(be, out.Shape(), false, false)
		}
		st.outState.step(be, snn.AdaptiveConfig{NeuronConfig: nw.ReadoutCfg}, out.Data())
		contribution = st.outState.buf.Spk
	case snn.ReadoutMembrane:
		if st.outMemT == nil {
			st.outMemT = tensor.New(out.Shape()...)
		}
		st.outMemT = tensor.AddOn(be, tensor.ScaleOn(be, st.outMemT, nw.ReadoutCfg.Alpha), out)
		contribution = st.outMemT.Data()
	default:
		panic(fmt.Sprintf("serve: unknown readout mode %v", nw.Mode))
	}
	st.acc.add(be, contribution, out.Shape())
	if st.win != nil {
		st.win.add(be, contribution, out.Shape())
	}
}

// snnLogits is the tape-free mirror of snn.Network.Logits: the same
// T-step loop over the same kernels in the same order, with membrane and
// accumulator state in reused arena slabs and the neuron step run in
// place with no surrogate.
func (e *Engine) snnLogits(x *tensor.Tensor) *tensor.Tensor {
	nw := e.net
	be := e.be
	packOn := compute.PackSpikePlanes()

	st := e.newSNNState()
	defer st.release(be)
	for t := 0; t < nw.T; t++ {
		hT, hSp := nw.Encoder.EncodeForward(be, x, t)
		e.stepSNN(st, act{t: hT, sp: hSp}, packOn)
	}
	return tensor.ScaleOn(be, st.acc.t, nw.LogitScale/float64(nw.T))
}
