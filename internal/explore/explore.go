// Package explore implements the paper's contribution: the systematic
// robustness-exploration methodology of Algorithm 1. For every point of a
// (Vth, T) grid it trains a spiking network, applies the learnability
// gate (clean accuracy ≥ Ath, 70 % in the paper), and for each surviving
// point evaluates robustness against PGD across a sweep of noise budgets
// ε. Grid points are independent: this package computes one point at a
// time, and internal/grid schedules the points of a sweep over workers.
package explore

import (
	"fmt"

	"snnsec/internal/attack"
	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// BuildSNN constructs a fresh spiking network for one grid point.
type BuildSNN func(vth float64, T int) (*snn.Network, error)

// Config parameterises one exploration run (Algorithm 1's inputs).
type Config struct {
	// Vths are the membrane voltage thresholds V_i, i ∈ [1, n].
	Vths []float64
	// Ts are the spiking time windows T_j, j ∈ [1, m].
	Ts []int
	// Epsilons are the adversarial noise budgets ε_k, k ∈ [1, p].
	Epsilons []float64
	// AccuracyThreshold is A_th, the learnability gate (default 0.70).
	AccuracyThreshold float64
	// Train configures the per-point training run. Its Optimizer field
	// must be nil: grid points train concurrently and optimiser state
	// (momentum, Adam moments) must not be shared — set NewOptimizer
	// instead.
	Train train.Config
	// NewOptimizer builds a fresh optimiser for each grid point. When
	// nil, each point gets Adam(1e-3).
	NewOptimizer func() train.Optimizer
	// AttackSteps is the PGD iteration count (default 10).
	AttackSteps int
	// EvalBatch is the evaluation batch size (default 32).
	EvalBatch int
	// Workers bounds the parallel grid points; it is the grid
	// coordinator's default shard count. The default is the CPU budget:
	// the width of the process-default compute backend (NumCPU unless
	// overridden, e.g. by the CLI's -workers flag).
	Workers int
	// KernelWorkers is the compute-backend width handed to each grid
	// worker: the tensor kernels under one grid point run on a backend of
	// this width, so total parallelism is Workers × KernelWorkers. The
	// default, max(1, budget/Workers) with budget as above, keeps that
	// product within the CPU budget — grid-level and kernel-level
	// parallelism compose without oversubscribing the machine.
	KernelWorkers int
	// Build constructs the network for a grid point.
	Build BuildSNN
	// Seed derives per-point attack generators.
	Seed uint64
}

// Validate checks the configuration and fills defaulted fields. The
// per-point entry points call it internally; the grid coordinator calls
// it up front to learn the grid dimensions and its worker budget.
func (c *Config) Validate() error {
	if len(c.Vths) == 0 || len(c.Ts) == 0 {
		return fmt.Errorf("explore: empty (Vth, T) grid")
	}
	// Zero axis values are rejected so that a zero-valued Point is an
	// unambiguous "never computed" marker in partial (checkpointed or
	// merged) results.
	for _, v := range c.Vths {
		if v <= 0 {
			return fmt.Errorf("explore: threshold Vth must be positive, got %g", v)
		}
	}
	for _, t := range c.Ts {
		if t <= 0 {
			return fmt.Errorf("explore: time window T must be positive, got %d", t)
		}
	}
	if len(c.Epsilons) == 0 {
		return fmt.Errorf("explore: no noise budgets")
	}
	if c.Build == nil {
		return fmt.Errorf("explore: no network builder")
	}
	if c.Train.Optimizer != nil {
		return fmt.Errorf("explore: Train.Optimizer would be shared across concurrent grid points; set NewOptimizer instead")
	}
	if c.AccuracyThreshold == 0 {
		c.AccuracyThreshold = 0.70
	}
	if c.AccuracyThreshold < 0 || c.AccuracyThreshold > 1 {
		return fmt.Errorf("explore: accuracy threshold %g out of [0,1]", c.AccuracyThreshold)
	}
	if c.AttackSteps <= 0 {
		c.AttackSteps = 10
	}
	if c.EvalBatch <= 0 {
		c.EvalBatch = 32
	}
	// The sweep's CPU budget is the default backend's width, so a global
	// override (the CLI's -workers flag) bounds grid-level and
	// kernel-level parallelism together. Workers is clamped to the grid
	// size: a 2×2 grid on a 16-CPU budget gets 4 workers with width-4
	// kernel backends rather than 16 workers of which 12 would idle.
	budget := compute.Default().Workers()
	if c.Workers <= 0 {
		c.Workers = budget
	}
	if points := len(c.Vths) * len(c.Ts); c.Workers > points {
		c.Workers = points
	}
	if c.KernelWorkers <= 0 {
		c.KernelWorkers = budget / c.Workers
		if c.KernelWorkers < 1 {
			c.KernelWorkers = 1
		}
	}
	return nil
}

// Point is the outcome at one (Vth, T) grid position.
type Point struct {
	Vth float64
	T   int
	// CleanAccuracy is the test accuracy without attack (Figure 6's
	// heat-map cell).
	CleanAccuracy float64
	// Learnable reports whether CleanAccuracy ≥ A_th; robustness is only
	// evaluated for learnable points (Algorithm 1, line 4).
	Learnable bool
	// Robustness holds robust accuracy per ε for learnable points
	// (Figures 7/8 cells; a full row of Figure 9).
	Robustness []attack.CurvePoint
	// Err records a per-point failure (e.g. diverged training); the
	// sweep continues past it.
	Err error
}

// RobustAt returns the robust accuracy at budget eps, or (0, false) when
// the point was not evaluated at it.
func (p *Point) RobustAt(eps float64) (float64, bool) {
	for _, cp := range p.Robustness {
		if cp.Eps == eps {
			return cp.RobustAccuracy, true
		}
	}
	return 0, false
}

// Result is the full grid outcome.
type Result struct {
	Vths     []float64
	Ts       []int
	Epsilons []float64
	// Points is indexed [ti*len(Vths) + vi] — T-major, matching the
	// paper's heat maps (T on the vertical axis).
	Points []Point
}

// At returns the point for the vi-th threshold and ti-th window.
func (r *Result) At(vi, ti int) *Point {
	return &r.Points[ti*len(r.Vths)+vi]
}

// NewPartialResult returns a Result with the given axes and every point
// unset (zero-valued). Distributed coordinators fill it point by point
// with Set as shards report in; because valid grids have Vth > 0 and
// T > 0, an unset point is recognisable by its zero T.
func NewPartialResult(vths []float64, ts []int, epsilons []float64) *Result {
	return &Result{
		Vths:     append([]float64(nil), vths...),
		Ts:       append([]int(nil), ts...),
		Epsilons: append([]float64(nil), epsilons...),
		Points:   make([]Point, len(vths)*len(ts)),
	}
}

// Set stores the point at grid index idx (T-major).
func (r *Result) Set(idx int, p Point) { r.Points[idx] = p }

// Computed reports whether the point at idx has been filled in.
func (r *Result) Computed(idx int) bool { return r.Points[idx].T != 0 }

// MissingIndices returns the grid indices that have not been computed —
// empty for a complete result, the remaining work-list for a partial
// (checkpoint-resumed or budget-limited) one.
func (r *Result) MissingIndices() []int {
	var out []int
	for i := range r.Points {
		if !r.Computed(i) {
			out = append(out, i)
		}
	}
	return out
}

// Lookup finds the point with the exact (vth, t), if present.
func (r *Result) Lookup(vth float64, t int) (*Point, bool) {
	for i := range r.Points {
		if r.Points[i].Vth == vth && r.Points[i].T == t {
			return &r.Points[i], true
		}
	}
	return nil, false
}

// LearnableCount returns how many grid points passed the gate.
func (r *Result) LearnableCount() int {
	n := 0
	for i := range r.Points {
		if r.Points[i].Learnable {
			n++
		}
	}
	return n
}

// TrainedPoint is one grid position after the training phase: the model
// itself is retained so robustness can be evaluated at any ε later
// without retraining (this is what lets Figures 7 and 8 share Figure 6's
// training).
type TrainedPoint struct {
	Vth           float64
	T             int
	Net           *snn.Network
	CleanAccuracy float64
	Learnable     bool
	Err           error
}

// ---------------------------------------------------------------------------
// Per-point entry points — the unit of grid execution
//
// The grid engine (internal/grid) runs one point at a time on each of its
// workers and merges the streamed results. The contract that makes the
// merge bit-identical for any worker count is that every source of
// randomness under a point — the training-set shuffle, the network's
// weight initialisation and encoder stream (owned by cfg.Build), and the
// PGD start points — derives from cfg.Seed and the point's T-major grid
// index alone, never from shared or sequential state.

// checkPoint validates cfg and idx and resolves a nil backend to one of
// cfg.KernelWorkers width.
func (c *Config) checkPoint(be compute.Backend, idx int) (compute.Backend, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if n := len(c.Vths) * len(c.Ts); idx < 0 || idx >= n {
		return nil, fmt.Errorf("explore: point index %d out of a %d-point grid", idx, n)
	}
	if be == nil {
		be = compute.New(c.KernelWorkers)
	}
	return be, nil
}

// TrainPointAt validates cfg and trains the idx-th grid point (T-major)
// on be — lines 3-4 of Algorithm 1 for a single point. A nil backend
// selects a backend of cfg.KernelWorkers width.
func TrainPointAt(cfg Config, be compute.Backend, idx int, trainDS, testDS *dataset.Dataset) (TrainedPoint, error) {
	be, err := cfg.checkPoint(be, idx)
	if err != nil {
		return TrainedPoint{}, err
	}
	vth, T := cfg.Vths[idx%len(cfg.Vths)], cfg.Ts[idx/len(cfg.Vths)]
	pt := TrainedPoint{Vth: vth, T: T}
	net, err := cfg.Build(vth, T)
	if err != nil {
		pt.Err = fmt.Errorf("explore: build (Vth=%g, T=%d): %w", vth, T, err)
		return pt, nil
	}
	// Each point trains on its own copy of the training set: train.Fit
	// may shuffle, and the dataset is shared across goroutines.
	localTrain := trainDS.Subset(0, trainDS.Len())
	tcfg := cfg.Train
	tcfg.Backend = be
	if cfg.NewOptimizer != nil {
		tcfg.Optimizer = cfg.NewOptimizer()
	}
	if tcfg.Shuffle != nil {
		// Derive an independent deterministic stream per point.
		tcfg.Shuffle = tensor.NewRand(cfg.Seed^uint64(idx), 0x7ea1)
	}
	if _, err := train.Fit(net, localTrain, tcfg); err != nil {
		pt.Err = fmt.Errorf("explore: train (Vth=%g, T=%d): %w", vth, T, err)
		return pt, nil
	}
	pt.Net = net
	pt.CleanAccuracy = train.EvaluateOn(be, net, testDS, cfg.EvalBatch)
	pt.Learnable = pt.CleanAccuracy >= cfg.AccuracyThreshold
	return pt, nil
}

// AttackPointAt evaluates the robustness sweep (lines 5-16) for a point
// trained by TrainPointAt and assembles its grid Point. It can be called
// repeatedly with different budgets on the same trained point. The PGD
// generator derives from (cfg.Seed, idx) alone, so the outcome does not
// depend on which worker executes it.
func AttackPointAt(cfg Config, be compute.Backend, idx int, tp *TrainedPoint, testDS *dataset.Dataset, epsilons []float64) (Point, error) {
	be, err := cfg.checkPoint(be, idx)
	if err != nil {
		return Point{}, err
	}
	pt := Point{
		Vth:           tp.Vth,
		T:             tp.T,
		CleanAccuracy: tp.CleanAccuracy,
		Learnable:     tp.Learnable,
		Err:           tp.Err,
	}
	if tp.Learnable && tp.Err == nil {
		bounds := attack.DatasetBounds(testDS)
		pt.Robustness = attack.CurveOn(be, tp.Net, testDS, epsilons, func(eps float64) attack.Attack {
			return attack.PGD{
				Eps:         eps,
				Steps:       cfg.AttackSteps,
				RandomStart: true,
				Rand:        tensor.NewRand(cfg.Seed+uint64(idx), 0xa77ac4),
				Bounds:      bounds,
				Backend:     be,
			}
		}, cfg.EvalBatch)
	}
	return pt, nil
}

// RunPointAt executes Algorithm 1 for one grid point: train, gate,
// robustness sweep at cfg.Epsilons. It returns the trained point as well
// so callers can snapshot the model.
func RunPointAt(cfg Config, be compute.Backend, idx int, trainDS, testDS *dataset.Dataset) (TrainedPoint, Point, error) {
	tp, err := TrainPointAt(cfg, be, idx, trainDS, testDS)
	if err != nil {
		return TrainedPoint{}, Point{}, err
	}
	pt, err := AttackPointAt(cfg, be, idx, &tp, testDS, cfg.Epsilons)
	if err != nil {
		return TrainedPoint{}, Point{}, err
	}
	return tp, pt, nil
}
