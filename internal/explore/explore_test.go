package explore

import (
	"math"
	"strings"
	"sync"
	"testing"

	"snnsec/internal/compute"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// tinyBuilder returns a builder for a minimal one-hidden-layer SNN so the
// grid sweep stays fast in tests.
func tinyBuilder(imageSize int) BuildSNN {
	return func(vth float64, T int) (*snn.Network, error) {
		r := tensor.NewRand(11, 0)
		cfg := snn.NeuronConfig{Vth: vth, Alpha: 0.9, Reset: snn.ResetZero, Surrogate: snn.FastSigmoid{Beta: 10}}
		return &snn.Network{
			Encoder: snn.ConstantCurrentEncoder{Gain: 1},
			Hidden: []snn.Layer{
				{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, imageSize*imageSize, 32)), Cfg: cfg},
			},
			Readout:    nn.NewLinear(r, 32, 10),
			ReadoutCfg: cfg,
			Mode:       snn.ReadoutMembrane,
			T:          T,
			LogitScale: 10,
		}, nil
	}
}

func gridData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	mk := func(n int, seed uint64) *dataset.Dataset {
		cfg := dataset.DefaultSynthConfig(n, seed)
		cfg.Size = 12
		d, err := dataset.SynthDigits(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Normalize()
		return d
	}
	return mk(200, 1), mk(50, 2)
}

func fastConfig(imageSize int) Config {
	return Config{
		Vths:              []float64{0.5, 1e6}, // absurd threshold silences the network: deliberately unlearnable
		Ts:                []int{2, 6},
		Epsilons:          []float64{0.5, 1.5},
		AccuracyThreshold: 0.4,
		Train: train.Config{
			Epochs:    15,
			BatchSize: 20,
			GradClip:  5,
		},
		NewOptimizer: func() train.Optimizer { return train.NewAdam(1e-2) },
		AttackSteps:  3,
		EvalBatch:    32,
		Workers:      2,
		Build:        tinyBuilder(imageSize),
		Seed:         3,
	}
}

// runSerial runs every grid point through RunPointAt in index order: the
// sweep without a scheduler.
func runSerial(t *testing.T, cfg Config, trainDS, testDS *dataset.Dataset) *Result {
	t.Helper()
	res := NewPartialResult(cfg.Vths, cfg.Ts, cfg.Epsilons)
	for idx := range res.Points {
		_, pt, err := RunPointAt(cfg, nil, idx, trainDS, testDS)
		if err != nil {
			t.Fatal(err)
		}
		res.Set(idx, pt)
	}
	return res
}

func TestRunGridShapeAndGate(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	res := runSerial(t, cfg, trainDS, testDS)
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for i := range res.Points {
		p := &res.Points[i]
		if p.Err != nil {
			t.Fatalf("point (%g, %d) failed: %v", p.Vth, p.T, p.Err)
		}
		if p.CleanAccuracy < 0 || p.CleanAccuracy > 1 {
			t.Errorf("accuracy %v out of range", p.CleanAccuracy)
		}
		if p.Learnable != (p.CleanAccuracy >= cfg.AccuracyThreshold) {
			t.Errorf("gate inconsistent at (%g, %d)", p.Vth, p.T)
		}
		if p.Learnable && len(p.Robustness) != 2 {
			t.Errorf("learnable point (%g, %d) has %d robustness entries", p.Vth, p.T, len(p.Robustness))
		}
		if !p.Learnable && p.Robustness != nil {
			t.Errorf("non-learnable point (%g, %d) was attacked", p.Vth, p.T)
		}
	}
	// Vth=8 with tiny T must be unlearnable — the silent-network corner
	// of Figure 6.
	p, ok := res.Lookup(1e6, 2)
	if !ok {
		t.Fatal("lookup failed")
	}
	if p.Learnable {
		t.Errorf("Vth=1e6 T=2 learnable with accuracy %v — silent corner not reproduced", p.CleanAccuracy)
	}
	// Vth=0.5 with the longer window should learn on this easy problem.
	p, ok = res.Lookup(0.5, 6)
	if !ok {
		t.Fatal("lookup failed")
	}
	if !p.Learnable {
		t.Errorf("Vth=0.5 T=6 not learnable (accuracy %v) — sweep too weak to be meaningful", p.CleanAccuracy)
	}
}

func TestResultIndexing(t *testing.T) {
	res := &Result{
		Vths: []float64{0.5, 1},
		Ts:   []int{2, 4},
		Points: []Point{
			{Vth: 0.5, T: 2}, {Vth: 1, T: 2},
			{Vth: 0.5, T: 4}, {Vth: 1, T: 4},
		},
	}
	if p := res.At(1, 0); p.Vth != 1 || p.T != 2 {
		t.Errorf("At(1,0) = (%g, %d)", p.Vth, p.T)
	}
	if p := res.At(0, 1); p.Vth != 0.5 || p.T != 4 {
		t.Errorf("At(0,1) = (%g, %d)", p.Vth, p.T)
	}
	if _, ok := res.Lookup(9, 9); ok {
		t.Error("Lookup found a phantom point")
	}
}

func TestPointRobustAt(t *testing.T) {
	p := Point{Robustness: nil}
	if _, ok := p.RobustAt(1); ok {
		t.Error("RobustAt on empty point")
	}
}

func TestLearnableCount(t *testing.T) {
	res := &Result{Points: []Point{{Learnable: true}, {}, {Learnable: true}}}
	if res.LearnableCount() != 2 {
		t.Errorf("LearnableCount = %d", res.LearnableCount())
	}
}

func TestConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"empty grid":  func(c *Config) { c.Vths = nil },
		"no budgets":  func(c *Config) { c.Epsilons = nil },
		"nil builder": func(c *Config) { c.Build = nil },
		"threshold 2": func(c *Config) { c.AccuracyThreshold = 2 },
	} {
		bad := fastConfig(12)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBuilderErrorIsPerPoint(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	cfg.Vths = []float64{0.5}
	cfg.Ts = []int{2}
	builder := cfg.Build
	cfg.Build = func(vth float64, T int) (*snn.Network, error) {
		if vth == 0.5 {
			return nil, errBoom
		}
		return builder(vth, T)
	}
	// The failure travels inside the point; RunPointAt itself succeeds,
	// so a sweep records it and moves on.
	_, p, err := RunPointAt(cfg, nil, 0, trainDS, testDS)
	if err != nil {
		t.Fatal(err)
	}
	if p.Err == nil || !strings.Contains(p.Err.Error(), "boom") {
		t.Errorf("builder error not recorded: %v", p.Err)
	}
	if p.Learnable {
		t.Error("failed point marked learnable")
	}
}

var errBoom = errTest("boom")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestGridDeterminism(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	cfg.Vths = []float64{0.5}
	cfg.Ts = []int{4}
	cfg.Workers = 1
	run := func() float64 {
		_, p, err := RunPointAt(cfg, nil, 0, trainDS.Subset(0, trainDS.Len()), testDS)
		if err != nil {
			t.Fatal(err)
		}
		return p.CleanAccuracy
	}
	a, b := run(), run()
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("two identical runs differ: %v vs %v", a, b)
	}
}

// trainAll trains every grid point through TrainPointAt in index order.
func trainAll(t *testing.T, cfg Config, trainDS, testDS *dataset.Dataset) []TrainedPoint {
	t.Helper()
	tps := make([]TrainedPoint, len(cfg.Vths)*len(cfg.Ts))
	for idx := range tps {
		tp, err := TrainPointAt(cfg, nil, idx, trainDS, testDS)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Err != nil {
			t.Fatalf("train point (%g,%d): %v", tp.Vth, tp.T, tp.Err)
		}
		if tp.Net == nil {
			t.Fatalf("trained point (%g,%d) kept no network", tp.Vth, tp.T)
		}
		tps[idx] = tp
	}
	return tps
}

func TestAttackPointAtReusesTraining(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	tps := trainAll(t, cfg, trainDS, testDS)
	// Attack the same trained points at two different budgets without
	// retraining.
	for idx := range tps {
		p1, err := AttackPointAt(cfg, nil, idx, &tps[idx], testDS, []float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := AttackPointAt(cfg, nil, idx, &tps[idx], testDS, []float64{1.5})
		if err != nil {
			t.Fatal(err)
		}
		if p1.CleanAccuracy != p2.CleanAccuracy {
			t.Error("clean accuracy changed between attack passes")
		}
		if !p1.Learnable {
			continue
		}
		a, ok1 := p1.RobustAt(0.5)
		b, ok2 := p2.RobustAt(1.5)
		if !ok1 || !ok2 {
			t.Fatalf("point %d not evaluated at its budget", idx)
		}
		if b > a+0.15 {
			t.Errorf("robustness at eps=1.5 (%v) far above eps=0.5 (%v)", b, a)
		}
	}
}

// TestTrainPointDeterminismAcrossWorkers pins the contract the grid
// engine rests on: training grid point i in isolation produces
// bit-identical weights to the same point trained concurrently with the
// rest of the grid on another backend width, sharing one training set,
// because every RNG stream under a point derives from (Seed, i) alone.
func TestTrainPointDeterminismAcrossWorkers(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	cfg.Vths = []float64{0.5, 0.75}
	cfg.Train.Epochs = 5
	// A shuffle generator exercises the per-point stream derivation (it
	// is replaced per point, never shared).
	cfg.Train.Shuffle = tensor.NewRand(99, 99)

	shared := trainDS.Subset(0, trainDS.Len())
	concurrent := make([]TrainedPoint, len(cfg.Vths)*len(cfg.Ts))
	errs := make([]error, len(concurrent))
	var wg sync.WaitGroup
	for idx := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[idx], errs[idx] = TrainPointAt(cfg, compute.New(2), idx, shared, testDS)
		}()
	}
	wg.Wait()
	for idx := range concurrent {
		if errs[idx] != nil {
			t.Fatal(errs[idx])
		}
		lone, err := TrainPointAt(cfg, compute.NewSerial(), idx, trainDS.Subset(0, trainDS.Len()), testDS)
		if err != nil {
			t.Fatal(err)
		}
		inSweep := &concurrent[idx]
		if lone.Err != nil || inSweep.Err != nil {
			t.Fatalf("point %d failed: %v / %v", idx, lone.Err, inSweep.Err)
		}
		if lone.CleanAccuracy != inSweep.CleanAccuracy {
			t.Errorf("point %d clean accuracy %v standalone vs %v in sweep", idx, lone.CleanAccuracy, inSweep.CleanAccuracy)
		}
		lp, sp := lone.Net.Params(), inSweep.Net.Params()
		if len(lp) != len(sp) {
			t.Fatalf("point %d param count %d vs %d", idx, len(lp), len(sp))
		}
		for pi := range lp {
			a, b := lp[pi].Data.Data(), sp[pi].Data.Data()
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("point %d param %q[%d]: %v standalone vs %v in sweep — per-point RNG leaked shared state",
						idx, lp[pi].Name, j, a[j], b[j])
				}
			}
		}
	}
}

// TestRunPointAtMatchesRun pins the two schedules of a sweep to one
// result: RunPointAt per point (the grid engine's unit of work) and the
// phased run that trains every point before attacking any (the schedule
// the traced benchmark replays) must agree exactly.
func TestRunPointAtMatchesRun(t *testing.T) {
	trainDS, testDS := gridData(t)
	cfg := fastConfig(12)
	tps := trainAll(t, cfg, trainDS.Subset(0, trainDS.Len()), testDS)
	for idx := range tps {
		want, err := AttackPointAt(cfg, nil, idx, &tps[idx], testDS, cfg.Epsilons)
		if err != nil {
			t.Fatal(err)
		}
		_, pt, err := RunPointAt(cfg, nil, idx, trainDS.Subset(0, trainDS.Len()), testDS)
		if err != nil {
			t.Fatal(err)
		}
		if pt.CleanAccuracy != want.CleanAccuracy || pt.Learnable != want.Learnable {
			t.Errorf("point %d: per-point (%v, %v) vs phased (%v, %v)",
				idx, pt.CleanAccuracy, pt.Learnable, want.CleanAccuracy, want.Learnable)
		}
		if len(pt.Robustness) != len(want.Robustness) {
			t.Fatalf("point %d robustness length %d vs %d", idx, len(pt.Robustness), len(want.Robustness))
		}
		for k := range pt.Robustness {
			if pt.Robustness[k] != want.Robustness[k] {
				t.Errorf("point %d eps %g: robust %v per-point vs %v phased",
					idx, pt.Robustness[k].Eps, pt.Robustness[k].RobustAccuracy, want.Robustness[k].RobustAccuracy)
			}
		}
	}
}

func TestValidateRejectsZeroAxes(t *testing.T) {
	trainDS, testDS := gridData(t)
	bad := fastConfig(12)
	bad.Vths = []float64{0, 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero Vth accepted")
	}
	bad = fastConfig(12)
	bad.Ts = []int{0, 2}
	if err := bad.Validate(); err == nil {
		t.Error("zero T accepted")
	}
	if _, err := TrainPointAt(fastConfig(12), nil, 4, trainDS, testDS); err == nil {
		t.Error("out-of-grid point index accepted")
	}
}

func TestPartialResultBookkeeping(t *testing.T) {
	res := NewPartialResult([]float64{0.5, 1}, []int{2}, []float64{1})
	if got := res.MissingIndices(); len(got) != 2 {
		t.Fatalf("fresh partial result missing %v, want 2 indices", got)
	}
	res.Set(1, Point{Vth: 1, T: 2, CleanAccuracy: 0.9})
	if !res.Computed(1) || res.Computed(0) {
		t.Error("Computed flags wrong after Set")
	}
	if got := res.MissingIndices(); len(got) != 1 || got[0] != 0 {
		t.Errorf("MissingIndices = %v, want [0]", got)
	}
}
