package serve

import (
	"fmt"

	"snnsec/internal/faultinject"
	"snnsec/internal/tensor"
)

// FaultStreamWindow is the fault point fired inside every streaming
// window, after the first timestep has already mutated the carried
// slabs — so an injected panic or error lands mid-update and exercises
// the rollback, not just the error return.
const FaultStreamWindow = "stream.window"

// StatefulRunner is the streaming forward: it advances an SNN engine one
// window of pre-binned spike planes at a time, carrying membrane and
// adaptation state across window boundaries instead of resetting per
// call. Under contiguous tiling (hop == window) a sequence of Step calls
// is therefore a faithful continuous simulation: the cumulative logits
// after k windows are bit-identical to one batch forward over the k·T
// concatenated planes (pinned by the equivalence suite in
// stateful_test.go).
//
// Windows are transactional. The carried state is snapshotted before
// each Step; if the window panics or a fault fires, the snapshot is
// restored and the error returned — the window fails alone, the stream
// continues from the pre-window state.
//
// A runner is not safe for concurrent use: one runner per stream
// session. Independent runners over the same Engine may run
// concurrently — Step never touches the engine's per-call state.
type StatefulRunner struct {
	e      *Engine
	st     *snnState
	win    accum // per-window accumulator, reused across Steps
	packOn bool  // hidden-plane packing, latched at construction
	steps  int   // timesteps advanced since construction / Reset
	closed bool
}

// NewStatefulRunner returns a streaming runner over the engine's
// network. packOn controls hidden-plane packing and is latched here so a
// stream's results cannot shift mid-connection if the global toggle
// changes; pass compute.PackSpikePlanes() for the batch-equivalent
// setting.
func (e *Engine) NewStatefulRunner(packOn bool) (*StatefulRunner, error) {
	if e.net == nil {
		return nil, fmt.Errorf("serve: streaming requires a spiking network, engine serves %T", e.dense)
	}
	r := &StatefulRunner{e: e, st: e.newSNNState(), packOn: packOn}
	r.st.win = &r.win
	return r, nil
}

// Steps returns how many timesteps the runner has advanced since
// construction or the last Reset.
func (r *StatefulRunner) Steps() int { return r.steps }

// Reset drops all carried state — membrane, adaptation, readout and the
// cumulative accumulator — returning the runner to its initial
// condition. The slabs are released; the next Step reacquires them.
func (r *StatefulRunner) Reset() {
	if r.closed {
		return
	}
	r.st.release(r.e.be)
	r.st = r.e.newSNNState()
	r.st.win = &r.win
	r.steps = 0
}

// Close releases the carried slabs. The runner is unusable afterwards.
func (r *StatefulRunner) Close() {
	if r.closed {
		return
	}
	r.st.release(r.e.be)
	r.closed = true
}

// Step advances the network over one window of spike-only input planes
// (one per timestep, each [N, sample...]) and returns the window's own
// logits: the readout contributions of exactly these len(planes) steps,
// scaled by LogitScale/len(planes). The input stays packed end to end —
// no dense input tensor is ever materialised.
func (r *StatefulRunner) Step(planes []*tensor.SpikeTensor) (out *tensor.Tensor, err error) {
	if r.closed {
		return nil, fmt.Errorf("serve: Step on closed runner")
	}
	if err := r.checkPlanes(planes); err != nil {
		return nil, err
	}
	e := r.e
	snap := r.snapshot()
	defer snap.discard(e)
	defer func() {
		if p := recover(); p != nil {
			r.restore(snap)
			out, err = nil, fmt.Errorf("serve: stream window failed: %v", p)
		}
	}()
	r.win.n = 0 // fresh per-window sum; the cumulative accumulator carries on
	for i, p := range planes {
		e.stepSNN(r.st, act{sp: p}, r.packOn)
		r.steps++
		if i == 0 {
			if ferr := faultinject.Apply(FaultStreamWindow); ferr != nil {
				r.restore(snap)
				return nil, fmt.Errorf("serve: stream window failed: %w", ferr)
			}
		}
	}
	return tensor.ScaleOn(e.be, r.win.t, e.net.LogitScale/float64(len(planes))), nil
}

// CumulativeLogits returns the logits over every timestep since the last
// Reset — ScaleOn(acc, LogitScale/steps), the exact expression the batch
// forward applies — or nil before the first successful Step. Under
// tiling this is bit-identical to a single batch forward over the
// concatenated windows.
func (r *StatefulRunner) CumulativeLogits() *tensor.Tensor {
	if r.closed || r.steps == 0 {
		return nil
	}
	return tensor.ScaleOn(r.e.be, r.st.acc.t, r.e.net.LogitScale/float64(r.steps))
}

func (r *StatefulRunner) checkPlanes(planes []*tensor.SpikeTensor) error {
	if len(planes) == 0 {
		return fmt.Errorf("serve: empty window")
	}
	sample := r.e.sample
	n := planes[0].Dim(0)
	for _, p := range planes {
		if p == nil || p.Dims() != len(sample)+1 || p.Dim(0) != n {
			return fmt.Errorf("serve: window planes must share a [N,%v] shape", sample)
		}
		for i, d := range sample {
			if p.Dim(i+1) != d {
				return fmt.Errorf("serve: plane shape %v does not match sample shape %v", p.Shape(), sample)
			}
		}
	}
	return nil
}

// stateSnap is the pre-window copy of everything a window mutates in
// place. Spike slabs and packed planes are rewritten from scratch every
// timestep, so only membrane, adaptation excess, readout state and the
// cumulative accumulator need copying. outMemT is pointer-restored: the
// membrane readout reassigns a freshly allocated tensor each step and
// never mutates the old one.
type stateSnap struct {
	mems    [][]float64 // arena copies per hidden layer; nil where no state yet
	exs     [][]float64
	outMem  []float64
	outMemT *tensor.Tensor
	accSlab []float64
	accN    int
	steps   int
}

func (r *StatefulRunner) snapshot() *stateSnap {
	be := r.e.be
	st := r.st
	s := &stateSnap{
		mems:    make([][]float64, len(st.states)),
		exs:     make([][]float64, len(st.states)),
		outMemT: st.outMemT,
		accN:    st.acc.n,
		steps:   r.steps,
	}
	for l, ps := range st.states {
		if ps == nil {
			continue
		}
		s.mems[l] = be.Get(len(ps.buf.MemIn))
		copy(s.mems[l], ps.buf.MemIn)
		if ps.buf.ExIn != nil {
			s.exs[l] = be.Get(len(ps.buf.ExIn))
			copy(s.exs[l], ps.buf.ExIn)
		}
	}
	if st.outState != nil {
		s.outMem = be.Get(len(st.outState.buf.MemIn))
		copy(s.outMem, st.outState.buf.MemIn)
	}
	if st.acc.n > 0 {
		s.accSlab = be.Get(len(st.acc.slab))
		copy(s.accSlab, st.acc.slab)
	}
	return s
}

// restore rewinds the runner to the snapshot. Populations created during
// the failed window are released outright — they will be recreated (zero
// state) by the next window, exactly as if the failed one never ran.
func (r *StatefulRunner) restore(s *stateSnap) {
	be := r.e.be
	st := r.st
	for l, ps := range st.states {
		if ps == nil {
			continue
		}
		if s.mems[l] == nil {
			ps.release(be)
			st.states[l] = nil
			continue
		}
		copy(ps.buf.MemIn, s.mems[l])
		if ps.buf.ExIn != nil {
			copy(ps.buf.ExIn, s.exs[l])
		}
	}
	if st.outState != nil {
		if s.outMem == nil {
			st.outState.release(be)
			st.outState = nil
		} else {
			copy(st.outState.buf.MemIn, s.outMem)
		}
	}
	st.outMemT = s.outMemT
	if s.accSlab != nil {
		copy(st.acc.slab, s.accSlab)
	} else {
		st.acc.t = nil
	}
	st.acc.n = s.accN
	r.steps = s.steps
}

// discard returns the snapshot's arena copies.
func (s *stateSnap) discard(e *Engine) {
	be := e.be
	for _, m := range s.mems {
		if m != nil {
			be.Put(m)
		}
	}
	for _, x := range s.exs {
		if x != nil {
			be.Put(x)
		}
	}
	if s.outMem != nil {
		be.Put(s.outMem)
	}
	if s.accSlab != nil {
		be.Put(s.accSlab)
	}
}
