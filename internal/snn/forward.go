package snn

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"snnsec/internal/compute"
)

// The neuron step: the one implementation of the per-timestep LIF/ALIF
// math, where the paper's structural knobs act — Vth is its threshold
// compare, T the number of times it runs. Every caller runs it: the
// taped producers (LIFStep, ALIFStep, Network.Logits) pass fresh
// tape-owned slabs and ask for the surrogate their pullbacks read, and
// the tape-free inference engine (internal/serve) updates its arena
// state in place with no surrogate. The encoders are single-sourced the
// same way (Encoder.EncodeForward), so the taped and tape-free forwards
// agree bit for bit by construction. TestForwardBackwardGolden pins the
// absolute bits; the forward-equivalence suite in internal/serve pins
// what the engine does on its own (layer dispatch, readout, accumulation).

// StepBuffers are the per-element arrays of one FusedStep call, each
// len(Cur) long unless noted.
type StepBuffers struct {
	// Cur is the synaptic input I[t].
	Cur []float64
	// MemIn is the membrane v[t−1]; MemOut receives v[t]. They may be
	// the same slice, which updates the membrane in place.
	MemIn, MemOut []float64
	// ExIn is the threshold excess (th − Vth) before the step and ExOut
	// receives it after (they may alias, like the membrane). Both nil
	// run a plain LIF population.
	ExIn, ExOut []float64
	// Spk receives the binary spikes s[t].
	Spk []float64
	// Surr, when non-nil, receives the surrogate derivative dH/dpre
	// that the taped pullbacks read.
	Surr []float64
	// Bits and Counts, when non-nil, receive the bit-packed spike plane
	// (rows·ceil(rowLen/64) words, row-aligned) and its per-row
	// popcounts. A nil Bits skips packing, e.g. for a readout
	// population whose spikes only feed an elementwise accumulator.
	Bits   []uint64
	Counts []int
}

// lifGrain is the elementwise work per parallel block of the neuron
// step and its pullbacks.
const lifGrain = 2048

// FusedStep advances one LIF population one timestep: leak, integrate,
// threshold and reset, then threshold adaptation when b.ExIn is non-nil,
// then the optional surrogate and bit-packing, fused into one pass per
// row of the population:
//
//	pre  = α·v[t−1] + I[t]
//	th   = Vth + excess[t−1]          (th = Vth without adaptation)
//	s[t] = H(pre − th)
//	v[t] = pre·(1−s[t])              (ResetZero)
//	v[t] = pre − th·s[t]             (ResetSubtract)
//	excess[t] = excess[t−1]·AdaptDecay + AdaptStep·s[t]
//
// rows is the leading (batch) dimension the packed plane is row-aligned
// on. The pass is partitioned by row, so the bit writes are block-local.
// cfg's adaptation fields are ignored for a plain LIF population.
// FusedStep writes through b's slices but never changes *b, so a caller
// that steps one population every timestep builds b once and sets Cur
// before each call.
func FusedStep(be compute.Backend, cfg AdaptiveConfig, rows int, b *StepBuffers) {
	if err := (&cfg).Validate(); err != nil {
		panic(err)
	}
	if cfg.Reset != ResetZero && cfg.Reset != ResetSubtract {
		panic(fmt.Sprintf("snn: unknown reset mode %v", cfg.Reset))
	}
	n := len(b.Cur)
	adapt := b.ExIn != nil
	surrOn := b.Surr != nil
	packOn := b.Bits != nil
	if len(b.MemIn) != n || len(b.MemOut) != n || len(b.Spk) != n ||
		adapt && (len(b.ExIn) != n || len(b.ExOut) != n) || surrOn && len(b.Surr) != n {
		panic(fmt.Sprintf("snn: FusedStep slab sizes mem %d/%d excess %d/%d spikes %d surrogate %d for %d neurons",
			len(b.MemIn), len(b.MemOut), len(b.ExIn), len(b.ExOut), len(b.Spk), len(b.Surr), n))
	}
	rowLen := n / rows
	words := (rowLen + 63) / 64
	if packOn && (len(b.Bits) != rows*words || len(b.Counts) != rows) {
		panic(fmt.Sprintf("snn: FusedStep pack storage %d/%d for %d rows × %d words", len(b.Bits), len(b.Counts), rows, words))
	}
	// Devirtualise the default surrogate: an interface call per neuron
	// per timestep dominates the elementwise pass otherwise. The inline
	// expression is FastSigmoid.Grad verbatim.
	fs, isFS := cfg.Surrogate.(FastSigmoid)
	be.ParallelFor(rows, lifGrain/rowLen, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			// A plain LIF or surrogate-free step points the views it does
			// not use at the membrane; the flags keep them untouched.
			base := r * rowLen
			cur := b.Cur[base : base+rowLen]
			memIn, memOut, spk := b.MemIn[base:], b.MemOut[base:], b.Spk[base:]
			exIn, exOut, surr := memIn, memOut, memOut
			if adapt {
				exIn, exOut = b.ExIn[base:], b.ExOut[base:]
			}
			if surrOn {
				surr = b.Surr[base:]
			}
			var bits []uint64
			if packOn {
				bits = b.Bits[r*words:][:words]
			}
			stepRow(&cfg, cur, memIn, memOut, exIn, exOut, spk, surr, bits, adapt, surrOn)
			if packOn {
				cnt := 0
				for _, w := range bits {
					cnt += mathbits.OnesCount64(w)
				}
				b.Counts[r] = cnt
			}
			// The surrogate is evaluated at the threshold distance
			// pre − th stepRow stored, in a second pass over the row that
			// keeps the surrogate call out of the hot loop.
			if surrOn && isFS {
				for j, u := range surr[:rowLen] {
					d := 1 + fs.Beta*math.Abs(u)
					surr[j] = 1 / (d * d)
				}
			} else if surrOn {
				for j, u := range surr[:rowLen] {
					surr[j] = cfg.Surrogate.Grad(u)
				}
			}
		}
	})
}

// stepRow is FusedStep's per-element loop over one row. The views are
// cut to len(cur) up front so the compiler drops the per-element bounds
// checks; a nil bits skips packing.
func stepRow(cfg *AdaptiveConfig, cur, memIn, memOut, exIn, exOut, spk, surr []float64, bits []uint64, adapt, surrOn bool) {
	memIn, memOut, spk = memIn[:len(cur)], memOut[:len(cur)], spk[:len(cur)]
	exIn, exOut, surr = exIn[:len(cur)], exOut[:len(cur)], surr[:len(cur)]
	packOn := bits != nil
	var wrd uint64
	for j := range cur {
		p := cfg.Alpha*memIn[j] + cur[j]
		th := cfg.Vth
		if adapt {
			th = cfg.Vth + exIn[j]
		}
		// The spike decision is an integer select rather than a
		// branch: spikes are data-dependent, and a mispredicted
		// branch per neuron costs more than the whole update.
		fire := 0
		if p > th {
			fire = 1
		}
		s := float64(fire)
		spk[j] = s
		if surrOn {
			surr[j] = p - th
		}
		if cfg.Reset == ResetZero {
			memOut[j] = p * (1 - s)
		} else {
			memOut[j] = p - th*s
		}
		if adapt {
			exOut[j] = exIn[j]*cfg.AdaptDecay + cfg.AdaptStep*s
		}
		if packOn {
			wrd |= uint64(fire) << (uint(j) & 63)
			if j&63 == 63 {
				bits[j>>6] = wrd
				wrd = 0
			}
		}
	}
	if packOn && len(cur)&63 != 0 {
		bits[len(bits)-1] = wrd
	}
}
