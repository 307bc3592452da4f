// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figures 1, 6, 7, 8, 9), plus the Algorithm-1 end-to-end run, the
// design-choice ablations called out in DESIGN.md, and micro-benchmarks
// of the computational substrate.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark executes the real experiment at the bench scale
// (see internal/core.BenchScale) and prints the regenerated table — the
// textual equivalent of the paper's plot — to stdout. Expensive shared
// setup (the trained (Vth, T) grid used by Figures 7, 8 and 9) runs once
// per process outside the timed region.
package snnsec

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"snnsec/internal/attack"
	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/core"
	"snnsec/internal/dataset"
	"snnsec/internal/explore"
	"snnsec/internal/nn"
	"snnsec/internal/report"
	"snnsec/internal/serve"
	"snnsec/internal/snn"
	"snnsec/internal/stream"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// ---------------------------------------------------------------------------
// Shared fixtures

var (
	sweepOnce sync.Once
	sweepVal  *trainedGrid
	sweepErr  error
)

// trainedGrid is the (Vth, T) grid after training. It keeps the networks,
// so Figures 7, 8 and 9 attack them at any ε without retraining.
type trainedGrid struct {
	cfg    explore.Config
	points []explore.TrainedPoint
	testDS *dataset.Dataset
}

// trainGrid trains every grid point through explore.TrainPointAt, one
// point at a time on kernels of the full CPU budget.
func trainGrid(s core.Scale, trainDS, testDS *dataset.Dataset) (*trainedGrid, error) {
	cfg := s.GridConfig()
	cfg.Workers = 1
	g := &trainedGrid{cfg: cfg, points: make([]explore.TrainedPoint, len(cfg.Vths)*len(cfg.Ts)), testDS: testDS}
	for idx := range g.points {
		tp, err := explore.TrainPointAt(cfg, nil, idx, trainDS, testDS)
		if err != nil {
			return nil, err
		}
		g.points[idx] = tp
	}
	return g, nil
}

// attack evaluates PGD robustness of every trained point at the given
// budgets and assembles the grid result.
func (g *trainedGrid) attack(b *testing.B, epsilons []float64) *explore.Result {
	b.Helper()
	res := explore.NewPartialResult(g.cfg.Vths, g.cfg.Ts, epsilons)
	for idx := range g.points {
		pt, err := explore.AttackPointAt(g.cfg, nil, idx, &g.points[idx], g.testDS, epsilons)
		if err != nil {
			b.Fatal(err)
		}
		res.Set(idx, pt)
	}
	return res
}

// sharedSweep trains the (Vth, T) grid once per process; Figures 7, 8 and
// 9 reuse it so the benchmark suite does not retrain the same 12 networks
// three times.
func sharedSweep(b *testing.B) *trainedGrid {
	b.Helper()
	sweepOnce.Do(func() {
		s := core.ScaleFromEnv()
		trainDS, testDS, err := core.LoadData(s.Data)
		if err != nil {
			sweepErr = err
			return
		}
		sweepVal, sweepErr = trainGrid(s, trainDS, testDS)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepVal
}

// ---------------------------------------------------------------------------
// Figure 1 — motivational case study (CNN vs SNN under PGD)

func BenchmarkFig1MotivationalStudy(b *testing.B) {
	s := core.ScaleFromEnv()
	var res *core.Fig1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunFig1(s, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	report.WriteCurves(os.Stdout, "\nFigure 1 — PGD on CNN vs SNN (default structural parameters)", []report.Series{
		{Name: "CNN", Points: res.CNN},
		{Name: fmt.Sprintf("SNN(%g,%d)", s.DefaultVth, s.DefaultT), Points: res.SNN},
	})
	if eps, ok := res.Crossover(); ok {
		fmt.Printf("turnaround point: eps = %g (paper: 0.5)\n", eps)
		b.ReportMetric(eps, "crossover_eps")
	} else {
		fmt.Println("no crossover observed")
	}
	b.ReportMetric(res.CNNClean, "cnn_clean_acc")
	b.ReportMetric(res.SNNClean, "snn_clean_acc")
}

// ---------------------------------------------------------------------------
// Figure 6 — learnability heat map (trains the full grid)

func BenchmarkFig6LearnabilityHeatmap(b *testing.B) {
	s := core.ScaleFromEnv()
	trainDS, testDS, err := core.LoadData(s.Data)
	if err != nil {
		b.Fatal(err)
	}
	var g *trainedGrid
	for i := 0; i < b.N; i++ {
		g, err = trainGrid(s, trainDS, testDS)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Publish for the dependent figure benchmarks.
	sweepOnce.Do(func() { sweepVal = g })
	res := g.attack(b, nil)
	fmt.Println()
	report.AccuracyGrid(res).WriteASCII(os.Stdout)
	learnable := res.LearnableCount()
	fmt.Printf("learnable points: %d/%d (Ath = 0.70)\n", learnable, len(res.Points))
	b.ReportMetric(float64(learnable), "learnable_points")
}

// ---------------------------------------------------------------------------
// Figures 7 and 8 — robustness heat maps at ε = 1.0 and ε = 1.5

func robustnessHeatmapBench(b *testing.B, eps float64) {
	g := sharedSweep(b)
	b.ResetTimer()
	var res *explore.Result
	for i := 0; i < b.N; i++ {
		res = g.attack(b, []float64{eps})
	}
	b.StopTimer()
	fmt.Println()
	report.RobustnessGrid(res, eps).WriteASCII(os.Stdout)
	// Spread between the most and least robust learnable point — the
	// paper's "high clean accuracy is no guarantee of robustness".
	lo, hi := 1.0, 0.0
	for i := range res.Points {
		if v, ok := res.Points[i].RobustAt(eps); ok {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi >= lo {
		fmt.Printf("robustness spread across learnable grid at eps=%g: %.3f .. %.3f\n", eps, lo, hi)
		b.ReportMetric(hi-lo, "robustness_spread")
	}
}

func BenchmarkFig7RobustnessHeatmapEps1(b *testing.B)  { robustnessHeatmapBench(b, 1.0) }
func BenchmarkFig8RobustnessHeatmapEps15(b *testing.B) { robustnessHeatmapBench(b, 1.5) }

// ---------------------------------------------------------------------------
// Figure 9 — tracked (Vth, T) combinations vs the CNN

func BenchmarkFig9RobustnessCurves(b *testing.B) {
	s := core.ScaleFromEnv()
	full := sharedSweep(b).attack(b, s.HeatmapEpsilons)
	combos := core.SelectFig9Combos(full)
	b.ResetTimer()
	var res *core.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunFig9(s, combos, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	series := []report.Series{{Name: "CNN", Points: res.CNN}}
	for _, c := range res.Combos {
		series = append(series, report.Series{Name: fmt.Sprintf("SNN(%g,%d)", c.Vth, c.T), Points: c.Curve})
	}
	fmt.Println()
	report.WriteCurves(os.Stdout, "Figure 9 — tracked (Vth, T) combinations vs CNN under PGD", series)
	gap := res.MaxGapOverCNN()
	fmt.Printf("max robustness gap over CNN: %.3f (paper: up to 0.85)\n", gap)
	b.ReportMetric(gap, "max_gap_over_cnn")
}

// ---------------------------------------------------------------------------
// Algorithm 1 — end-to-end exploration on a reduced grid

func BenchmarkAlgorithm1Exploration(b *testing.B) {
	// A 2×2 grid keeps this end-to-end (train + gate + attack) benchmark
	// affordable; the full preset is covered by the Figure 6-8 pipeline.
	s := core.ScaleFromEnv()
	s.Vths = s.Vths[:2]
	s.Ts = s.Ts[:2]
	var res *explore.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunGrid(s, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.LearnableCount()), "learnable_points")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md): encoder, surrogate, reset mode, leak factor.
// Each trains the same small spiking network with one knob changed and
// reports clean and robust accuracy at ε = 1.0.

type ablationVariant struct {
	name string
	opts core.SNNOptions
}

func runAblation(b *testing.B, title string, variants []ablationVariant) {
	s := core.ScaleFromEnv()
	s.Data.TestN = 50
	trainDS, testDS, err := core.LoadData(s.Data)
	if err != nil {
		b.Fatal(err)
	}
	const (
		vth = 1.0
		T   = 8
		eps = 1.0
	)
	bounds := attack.DatasetBounds(testDS)
	type row struct {
		name          string
		clean, robust float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, v := range variants {
			net, err := core.NewSpikingLeNet5(s.Net, vth, T, v.opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := train.Fit(net, trainDS, train.Config{
				Epochs: s.Epochs, BatchSize: s.BatchSize,
				Optimizer: train.NewAdam(s.LR), GradClip: s.GradClip,
			}); err != nil {
				b.Fatal(err)
			}
			ev := attack.Evaluate(net, testDS, attack.PGD{
				Eps: eps, Steps: s.AttackSteps, RandomStart: true,
				Rand: tensor.NewRand(s.Seed, 0xab1a), Bounds: bounds,
			}, s.EvalBatch)
			rows = append(rows, row{v.name, ev.CleanAccuracy, ev.RobustAccuracy})
		}
	}
	fmt.Printf("\n%s (Vth=%g, T=%d, PGD eps=%g)\n", title, vth, T, eps)
	fmt.Printf("%-28s %8s %8s\n", "variant", "clean", "robust")
	for _, r := range rows {
		fmt.Printf("%-28s %8.3f %8.3f\n", r.name, r.clean, r.robust)
	}
}

func BenchmarkAblationEncoder(b *testing.B) {
	runAblation(b, "Encoder ablation", []ablationVariant{
		{"poisson-rate (paper)", core.SNNOptions{}},
		{"constant-current", core.SNNOptions{Encoder: snn.ConstantCurrentEncoder{Gain: 1}}},
		{"latency", core.SNNOptions{Encoder: snn.LatencyEncoder{Gain: 1, T: 8}}},
	})
}

func BenchmarkAblationSurrogate(b *testing.B) {
	runAblation(b, "Surrogate-gradient ablation", []ablationVariant{
		{"fast-sigmoid beta=25", core.SNNOptions{Surrogate: snn.FastSigmoid{Beta: 25}}},
		{"fast-sigmoid beta=100", core.SNNOptions{Surrogate: snn.FastSigmoid{Beta: 100}}},
		{"sigmoid-prime beta=5", core.SNNOptions{Surrogate: snn.SigmoidPrime{Beta: 5}}},
		{"piecewise-linear w=0.5", core.SNNOptions{Surrogate: snn.PiecewiseLinear{Width: 0.5}}},
	})
}

func BenchmarkAblationReset(b *testing.B) {
	runAblation(b, "Reset-mode ablation", []ablationVariant{
		{"reset-to-zero (paper)", core.SNNOptions{Reset: snn.ResetZero}},
		{"reset-by-subtraction", core.SNNOptions{Reset: snn.ResetSubtract}},
	})
}

func BenchmarkAblationLeak(b *testing.B) {
	runAblation(b, "Leak-factor ablation (Sharmin et al. [36])", []ablationVariant{
		{"alpha=0.7 (strong leak)", core.SNNOptions{Alpha: 0.7}},
		{"alpha=0.9 (default)", core.SNNOptions{Alpha: 0.9}},
		{"alpha=1.0 (IF, no leak)", core.SNNOptions{Alpha: 1.0}},
	})
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the substrate

func BenchmarkConv2DForward16(b *testing.B) {
	r := tensor.NewRand(1, 1)
	x := tensor.RandN(r, 0, 1, 32, 1, 16, 16)
	w := tensor.RandN(r, 0, 1, 6, 1, 5, 5)
	bias := tensor.RandN(r, 0, 1, 6)
	p := tensor.ConvParams{Stride: 1, Padding: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2D(x, w, bias, p)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := tensor.NewRand(2, 2)
	x := tensor.RandN(r, 0, 1, 128, 128)
	y := tensor.RandN(r, 0, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

func BenchmarkLIFStep(b *testing.B) {
	r := tensor.NewRand(3, 3)
	cfg := snn.DefaultNeuronConfig()
	cur := tensor.RandN(r, 0.5, 0.5, 32, 256)
	mem := tensor.RandN(r, 0, 0.3, 32, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := autodiff.NewTape()
		snn.LIFStep(tp, cfg, tp.Const(cur), tp.Const(mem))
	}
}

func BenchmarkSNNForwardT12(b *testing.B) {
	net, err := core.NewSpikingLeNet5(core.DefaultLeNetConfig(16, 1), 1, 12, core.SNNOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRand(4, 4)
	x := tensor.RandN(r, 0, 1, 8, 1, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := autodiff.NewTape()
		net.Logits(tp, tp.Const(x))
	}
}

func BenchmarkSNNBackwardT12(b *testing.B) {
	net, err := core.NewSpikingLeNet5(core.DefaultLeNetConfig(16, 1), 1, 12, core.SNNOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRand(5, 5)
	x := tensor.RandN(r, 0, 1, 8, 1, 16, 16)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range net.Params() {
			p.ZeroGrad()
		}
		tp := autodiff.NewTape()
		loss := tp.SoftmaxCrossEntropy(net.Logits(tp, tp.Const(x)), labels)
		tp.Backward(loss)
	}
}

func BenchmarkCNNForward(b *testing.B) {
	cnn, err := core.NewLeNet5CNN(core.DefaultLeNetConfig(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRand(6, 6)
	x := tensor.RandN(r, 0, 1, 8, 1, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := autodiff.NewTape()
		cnn.Logits(tp, tp.Const(x))
	}
}

func BenchmarkPGDStepOnCNN(b *testing.B) {
	cnn, err := core.NewLeNet5CNN(core.DefaultLeNetConfig(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRand(7, 7)
	x := tensor.RandN(r, 0, 1, 8, 1, 16, 16)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.InputGradient(cnn, x, labels)
	}
}

func BenchmarkSynthDigits(b *testing.B) {
	cfg := dataset.DefaultSynthConfig(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.SynthDigits(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Compute-backend benchmarks: each kernel on the Serial and Parallel
// backends, plus the old-vs-new kernel pairs of the batched-conv PR
// (per-image vs batched conv pipeline, naive vs blocked matmul). The
// pairs feed BENCH_compute.json (see TestWriteComputeBenchJSON), which
// keeps one history record per PR so the perf trajectory of the compute
// layer is tracked across the stack.

func benchMatMul256(b *testing.B, be compute.Backend) {
	r := tensor.NewRand(9, 9)
	x := tensor.RandN(r, 0, 1, 256, 256)
	y := tensor.RandN(r, 0, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulOn(be, x, y)
	}
}

func BenchmarkMatMul256Serial(b *testing.B)   { benchMatMul256(b, compute.NewSerial()) }
func BenchmarkMatMul256Parallel(b *testing.B) { benchMatMul256(b, compute.NewParallel(0)) }

// benchMatMul256Naive is the naive-reference side of the naive-vs-blocked
// matmul pair.
func benchMatMul256Naive(b *testing.B, be compute.Backend) {
	r := tensor.NewRand(9, 9)
	x := tensor.RandN(r, 0, 1, 256, 256)
	y := tensor.RandN(r, 0, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulNaiveOn(be, x, y)
	}
}

func BenchmarkMatMul256Naive(b *testing.B) { benchMatMul256Naive(b, compute.NewSerial()) }

func convBenchFixture() (x, w, bias *tensor.Tensor, p tensor.ConvParams) {
	r := tensor.NewRand(10, 10)
	x = tensor.RandN(r, 0, 1, 32, 1, 16, 16)
	w = tensor.RandN(r, 0, 1, 6, 1, 5, 5)
	bias = tensor.RandN(r, 0, 1, 6)
	return x, w, bias, tensor.ConvParams{Stride: 1, Padding: 2}
}

func benchConvForwardBatch32(b *testing.B, be compute.Backend) {
	x, w, bias, p := convBenchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DOn(be, x, w, bias, p)
	}
}

func BenchmarkConvForwardBatch32Serial(b *testing.B) {
	benchConvForwardBatch32(b, compute.NewSerial())
}
func BenchmarkConvForwardBatch32Parallel(b *testing.B) {
	benchConvForwardBatch32(b, compute.NewParallel(0))
}

// benchConvForwardBatch32PerImage is the per-image reference side of the
// per-image-vs-batched conv pair (PR-1 path: one im2col and one naive
// matmul per image).
func benchConvForwardBatch32PerImage(b *testing.B, be compute.Backend) {
	x, w, bias, p := convBenchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DPerImageOn(be, x, w, bias, p)
	}
}

func BenchmarkConvForwardBatch32PerImage(b *testing.B) {
	benchConvForwardBatch32PerImage(b, compute.NewSerial())
}

func convBackwardBenchFixture() (x, w, gout *tensor.Tensor, p tensor.ConvParams) {
	x, w, _, p = convBenchFixture()
	r := tensor.NewRand(12, 12)
	gout = tensor.RandN(r, 0, 1, 32, 6, 16, 16)
	return x, w, gout, p
}

func benchConvBackwardBatch32(b *testing.B, be compute.Backend) {
	x, w, gout, p := convBackwardBenchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DBackwardOn(be, x, w, gout, p, true)
	}
}

func BenchmarkConvBackwardBatch32Serial(b *testing.B) {
	benchConvBackwardBatch32(b, compute.NewSerial())
}

func benchConvBackwardBatch32PerImage(b *testing.B, be compute.Backend) {
	x, w, gout, p := convBackwardBenchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DBackwardPerImageOn(be, x, w, gout, p, true)
	}
}

func BenchmarkConvBackwardBatch32PerImage(b *testing.B) {
	benchConvBackwardBatch32PerImage(b, compute.NewSerial())
}

func benchSNNBPTTStep(b *testing.B, be compute.Backend) {
	net, err := core.NewSpikingLeNet5(core.DefaultLeNetConfig(16, 1), 1, 12, core.SNNOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRand(11, 11)
	x := tensor.RandN(r, 0, 1, 8, 1, 16, 16)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range net.Params() {
			p.ZeroGrad()
		}
		tp := autodiff.NewTapeOn(be)
		loss := tp.SoftmaxCrossEntropy(net.Logits(tp, tp.Const(x)), labels)
		tp.Backward(loss)
	}
}

func BenchmarkSNNBPTTStepSerial(b *testing.B)   { benchSNNBPTTStep(b, compute.NewSerial()) }
func BenchmarkSNNBPTTStepParallel(b *testing.B) { benchSNNBPTTStep(b, compute.NewParallel(0)) }

// ---------------------------------------------------------------------------
// Spike-plane engine benchmarks: the bit-packed select-accumulate
// kernels against the dense micro-kernels they replace, on identical
// binary inputs, across spike densities — and end-to-end through the
// BPTT loop of a pooling-free spiking network whose every synapse is
// spike-fed.

// binaryMatrix returns a deterministic 0/1 matrix of the given density.
func binaryMatrix(seed uint64, density float64, m, k int) *tensor.Tensor {
	u := tensor.RandU(tensor.NewRand(seed, 0x51), 0, 1, m, k)
	d := u.Data()
	for i, v := range d {
		if v < density {
			d[i] = 1
		} else {
			d[i] = 0
		}
	}
	return u
}

func benchSpikeMatMul256(b *testing.B, density float64, sparse bool) {
	a := binaryMatrix(14, density, 256, 256)
	y := tensor.RandN(tensor.NewRand(15, 15), 0, 1, 256, 256)
	sp := tensor.PackSpikes(a)
	ser := compute.NewSerial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sparse {
			tensor.SpikeMatMulOn(ser, sp, y)
		} else {
			tensor.MatMulOn(ser, a, y)
		}
	}
}

func BenchmarkSpikeMatMul256d10Dense(b *testing.B)  { benchSpikeMatMul256(b, 0.1, false) }
func BenchmarkSpikeMatMul256d10Sparse(b *testing.B) { benchSpikeMatMul256(b, 0.1, true) }
func BenchmarkSpikeMatMul256d50Dense(b *testing.B)  { benchSpikeMatMul256(b, 0.5, false) }
func BenchmarkSpikeMatMul256d50Sparse(b *testing.B) { benchSpikeMatMul256(b, 0.5, true) }

// newSpikeBenchNet builds a pooling-free spiking LeNet variant
// (stride-2 convolutions downsample instead of average pooling), so
// every synapse input is a binary plane and the whole T-step loop runs
// in packed form. Vth = 1.5 keeps the hidden spike rates at ~2% on
// this fixture — the sparse regime of the paper's grid corners, well
// inside the ≤10% density the acceptance gate names; the measured rate
// is recorded as spike_bptt_density when SNNSEC_WRITE_BENCH runs.
func newSpikeBenchNet() *snn.Network {
	r := tensor.NewRand(16, 0x5b1e)
	cfg := snn.NeuronConfig{Vth: 1.5, Alpha: 0.9, Reset: snn.ResetZero, Surrogate: snn.FastSigmoid{Beta: 25}}
	return &snn.Network{
		Encoder: snn.NewPoissonEncoder(1, 17, 0xe4),
		Hidden: []snn.Layer{
			{Syn: nn.NewConv2D(r, 1, 6, 5, 2, 2), Cfg: cfg},
			{Syn: nn.NewConv2D(r, 6, 12, 3, 2, 1), Cfg: cfg},
			{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, 12*4*4, 48)), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 48, core.NumClasses),
		ReadoutCfg: cfg,
		Mode:       snn.ReadoutSpikeCount,
		T:          12,
		LogitScale: 10,
	}
}

// spikeBenchInput: intensities in [0, 0.2], so the Poisson front end
// fires at ≤ 10% density.
func spikeBenchInput() *tensor.Tensor {
	return tensor.RandU(tensor.NewRand(18, 18), 0, 0.2, 32, 1, 16, 16)
}

func benchSpikeSNNBPTTStep(b *testing.B, spikeKernels bool) {
	pol := compute.DefaultDispatchPolicy()
	if spikeKernels {
		pol.Mode = compute.DispatchSparse
	} else {
		pol.Mode = compute.DispatchDense
	}
	compute.SetDispatchPolicy(pol)
	defer compute.SetDispatchPolicy(compute.DefaultDispatchPolicy())
	net := newSpikeBenchNet()
	x := spikeBenchInput()
	labels := make([]int, x.Dim(0))
	for i := range labels {
		labels[i] = i % core.NumClasses
	}
	be := compute.NewSerial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range net.Params() {
			p.ZeroGrad()
		}
		tp := autodiff.NewTapeOn(be)
		loss := tp.SoftmaxCrossEntropy(net.Logits(tp, tp.Const(x)), labels)
		tp.Backward(loss)
	}
}

func BenchmarkSpikeSNNBPTTStepDenseKernels(b *testing.B) { benchSpikeSNNBPTTStep(b, false) }
func BenchmarkSpikeSNNBPTTStepSpikeKernels(b *testing.B) { benchSpikeSNNBPTTStep(b, true) }

// spikeBPTTDensity reports the mean hidden spike rate of the sparse
// BPTT fixture, recorded into the bench JSON so the "≤10% density"
// claim on the SNNBPTTStep pair is checkable.
func spikeBPTTDensity() float64 {
	net := newSpikeBenchNet()
	net.Record = &snn.Trace{}
	tp := autodiff.NewTape()
	net.Logits(tp, tp.Const(spikeBenchInput()))
	sum := 0.0
	for _, r := range net.Record.SpikeRates {
		sum += r
	}
	return sum / float64(len(net.Record.SpikeRates))
}

// ---------------------------------------------------------------------------
// Tape-free serving (PR 7)

// newServeBenchNet is the latency-serving fixture: a small dense-layer
// SNN at the paper's default window T=64, evaluated one sample per
// forward — the regime where the tape's per-step bookkeeping dominates
// and the tape-free engine pays off most.
func newServeBenchNet() *snn.Network {
	r := tensor.NewRand(21, 0x5e4e)
	cfg := snn.NeuronConfig{Vth: 0.3, Alpha: 0.9, Reset: snn.ResetZero, Surrogate: snn.FastSigmoid{Beta: 25}}
	return &snn.Network{
		Encoder: snn.NewPoissonEncoder(0.5, 23, 0xe5),
		Hidden: []snn.Layer{
			{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, 64, 8)), Cfg: cfg},
			{Syn: nn.NewLinear(r, 8, 8), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 8, core.NumClasses),
		ReadoutCfg: cfg,
		Mode:       snn.ReadoutSpikeCount,
		T:          64,
		LogitScale: 10,
	}
}

func serveBenchInput() *tensor.Tensor {
	return tensor.RandU(tensor.NewRand(22, 22), 0, 1, 1, 1, 8, 8)
}

func benchServeForwardTaped(b *testing.B) {
	net := newServeBenchNet()
	be := compute.NewSerial()
	x := serveBenchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		train.LogitsOn(be, net, x)
	}
}

func benchServeForwardTapeFree(b *testing.B) {
	net := newServeBenchNet()
	eng, err := serve.NewEngine(net, compute.NewSerial(), []int{1, 8, 8})
	if err != nil {
		b.Fatal(err)
	}
	x := serveBenchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Logits(x); err != nil {
			b.Fatal(err)
		}
	}
}

// serveLatencySweep runs the same-process load benchmark: the serving
// fixture behind the batching server at ascending offered loads on the
// serial backend, reporting p50/p99 per level. The knee — the last
// level the server kept up with — is what BENCH_compute.json records
// as the serving capacity.
func serveLatencySweep() ([]serve.LatencyReport, error) {
	eng, err := serve.NewEngine(newServeBenchNet(), compute.NewSerial(), []int{1, 8, 8})
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{}, &serve.Model{Fingerprint: "bench", Runner: eng}, nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	sample := make([]float64, 64)
	xd := serveBenchInput().Data()
	copy(sample, xd)
	return serve.MeasureLatencySweep(srv, [][]float64{sample}, []float64{100, 200, 400, 800}, 1500*time.Millisecond, 4), nil
}

// ---------------------------------------------------------------------------
// Streaming inference (PR 9)

// newStreamBenchNet is the event-driven fixture: a dense-layer SNN over
// a 16x16 sensor whose encoder is never called — the binner feeds
// packed spike planes straight into the stateful engine.
func newStreamBenchNet() *snn.Network {
	r := tensor.NewRand(24, 0x57e4)
	cfg := snn.NeuronConfig{Vth: 0.3, Alpha: 0.9, Reset: snn.ResetZero, Surrogate: snn.FastSigmoid{Beta: 25}}
	return &snn.Network{
		Encoder: snn.ConstantCurrentEncoder{Gain: 1},
		Hidden: []snn.Layer{
			{Syn: nn.NewSequential(nn.Flatten{}, nn.NewLinear(r, 16*16, 32)), Cfg: cfg},
			{Syn: nn.NewLinear(r, 32, 32), Cfg: cfg},
		},
		Readout:    nn.NewLinear(r, 32, core.NumClasses),
		ReadoutCfg: cfg,
		Mode:       snn.ReadoutSpikeCount,
		T:          4,
		LogitScale: 10,
	}
}

// streamBenchServer wires the fixture into a streaming server: 16x16
// sensor, 4 steps per 4ms window, tiling hops (carried state).
func streamBenchServer(be compute.Backend) (*stream.Server, error) {
	eng, err := serve.NewEngine(newStreamBenchNet(), be, []int{1, 16, 16})
	if err != nil {
		return nil, err
	}
	return stream.NewServer(stream.Config{
		Binner: stream.BinnerConfig{H: 16, W: 16, Steps: 4, WindowUS: 4000},
	}, func() (stream.Runner, error) {
		return eng.NewStatefulRunner(compute.PackSpikePlanes())
	})
}

func streamBenchSource() (stream.EventSource, int64, error) {
	src, err := dataset.NewGlyphEventStream(dataset.DefaultEventStreamConfig(
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 42))
	if err != nil {
		return nil, 0, err
	}
	return src, src.EndUS(), nil
}

// streamThroughputReport measures the event path end to end on one
// core: synthetic glyph events → binner → stateful forward, replayed
// for ~2s of wall clock.
func streamThroughputReport() (*stream.ThroughputReport, error) {
	sv, err := streamBenchServer(compute.NewSerial())
	if err != nil {
		return nil, err
	}
	rep, err := sv.MeasureThroughput(2*time.Second, streamBenchSource)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// BenchmarkStreamEventThroughput is the manual-run variant of the
// streaming throughput measurement: one op = one full replay of the
// 200ms synthetic stream through a fresh session.
func BenchmarkStreamEventThroughput(b *testing.B) {
	sv, err := streamBenchServer(compute.NewSerial())
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sv.MeasureThroughput(0, streamBenchSource)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BENCH_compute.json schema: one history record per PR, appended (never
// overwritten) by TestWriteComputeBenchJSON, so the perf trajectory of
// the compute layer is reviewable across the stack. Each benchmark pair
// times a baseline and a candidate of the same computation and records
// speedup = baseline/candidate.
type benchPairEntry struct {
	Name        string  `json:"name"`
	Baseline    string  `json:"baseline"`
	Candidate   string  `json:"candidate"`
	BaselineNs  int64   `json:"baseline_ns_op"`
	CandidateNs int64   `json:"candidate_ns_op"`
	Speedup     float64 `json:"speedup"`
}

type benchRecord struct {
	Label  string `json:"label"`
	NumCPU int    `json:"numcpu"`
	// SpikeBPTTDensity is the measured mean hidden spike rate of the
	// sparse SNNBPTTStep fixture, recorded so the density regime of the
	// dense-vs-spike pair is auditable (0 for records predating it).
	SpikeBPTTDensity float64          `json:"spike_bptt_density,omitempty"`
	Benchmarks       []benchPairEntry `json:"benchmarks"`
	// Serve is the same-process serving benchmark (PR 7): latency
	// percentiles at a fixed offered load against the tape-free engine
	// behind the batching server (absent for records predating it).
	// Since PR 9 it holds the knee level of ServeSweep.
	Serve *serve.LatencyReport `json:"serve,omitempty"`
	// ServeSweep is the offered-load sweep (PR 9): one report per
	// ascending level; ServeKneeRPS is the last offered rate the server
	// kept up with (achieved ≥ 90% of offered, errors ≤ 1%).
	ServeSweep   []serve.LatencyReport `json:"serve_sweep,omitempty"`
	ServeKneeRPS float64               `json:"serve_knee_rps,omitempty"`
	// Stream is the event-driven streaming benchmark (PR 9): events/sec
	// through binner + stateful forward on one core.
	Stream *stream.ThroughputReport `json:"stream,omitempty"`
}

type benchDoc struct {
	Note    string        `json:"note"`
	History []benchRecord `json:"history"`
}

// TestWriteComputeBenchJSON appends this PR's kernel-timing record to
// BENCH_compute.json: serial-vs-parallel for each kernel, the
// per-image-vs-batched conv pipeline and naive-vs-blocked matmul pairs,
// the dense-vs-sparse spike-kernel pairs (density sweep plus the
// end-to-end sparse BPTT step), the serving offered-load sweep with its
// knee, and the streaming event-throughput run. A record with the same label (SNNSEC_BENCH_LABEL, default
// "PR 6") is replaced; other PRs' records are preserved. It only runs when SNNSEC_WRITE_BENCH is set:
//
//	SNNSEC_WRITE_BENCH=1 go test -run TestWriteComputeBenchJSON
func TestWriteComputeBenchJSON(t *testing.T) {
	if os.Getenv("SNNSEC_WRITE_BENCH") == "" {
		t.Skip("set SNNSEC_WRITE_BENCH=1 to rewrite BENCH_compute.json")
	}
	ser, par := compute.NewSerial(), compute.NewParallel(0)
	onBe := func(fn func(*testing.B, compute.Backend), be compute.Backend) func(*testing.B) {
		return func(b *testing.B) { fn(b, be) }
	}
	atDensity := func(density float64, sparse bool) func(*testing.B) {
		return func(b *testing.B) { benchSpikeMatMul256(b, density, sparse) }
	}
	spikeBPTT := func(spikeKernels bool) func(*testing.B) {
		return func(b *testing.B) { benchSpikeSNNBPTTStep(b, spikeKernels) }
	}
	pairs := []struct {
		name, baseline, candidate string
		base, cand                func(*testing.B)
	}{
		{"MatMul256", "serial", "parallel", onBe(benchMatMul256, ser), onBe(benchMatMul256, par)},
		{"ConvForwardBatch32", "serial", "parallel", onBe(benchConvForwardBatch32, ser), onBe(benchConvForwardBatch32, par)},
		{"SNNBPTTStep", "serial", "parallel", onBe(benchSNNBPTTStep, ser), onBe(benchSNNBPTTStep, par)},
		{"MatMul256", "naive", "blocked", onBe(benchMatMul256Naive, ser), onBe(benchMatMul256, ser)},
		{"ConvForwardBatch32", "per-image", "batched", onBe(benchConvForwardBatch32PerImage, ser), onBe(benchConvForwardBatch32, ser)},
		{"ConvBackwardBatch32", "per-image", "batched", onBe(benchConvBackwardBatch32PerImage, ser), onBe(benchConvBackwardBatch32, ser)},
		// Spike-plane engine (PR 3): dense micro-kernel vs bit-packed
		// select-accumulate on identical binary operands, across the
		// density sweep, and end-to-end through the BPTT loop of the
		// pooling-free spiking net (single core; ≤10% spike density —
		// see spike_bptt_density).
		{"SpikeMatMul256d10", "dense", "sparse", atDensity(0.1, false), atDensity(0.1, true)},
		{"SpikeMatMul256d50", "dense", "sparse", atDensity(0.5, false), atDensity(0.5, true)},
		{"SNNBPTTStepSparse", "dense-kernels", "spike-kernels", spikeBPTT(false), spikeBPTT(true)},
		// Tape-free inference engine (PR 7): the taped forward vs the
		// fused forward-only engine on the single-sample serving fixture
		// (single core). The CI perf gate requires ≥1.5× here.
		{"ServeForward", "taped", "tape-free", benchServeForwardTaped, benchServeForwardTapeFree},
	}
	label := os.Getenv("SNNSEC_BENCH_LABEL")
	if label == "" {
		label = "PR 6"
	}
	rec := benchRecord{Label: label, NumCPU: runtime.NumCPU(), SpikeBPTTDensity: spikeBPTTDensity()}
	sweep, err := serveLatencySweep()
	if err != nil {
		t.Fatalf("serve latency sweep: %v", err)
	}
	rec.ServeSweep = sweep
	if knee := serve.LatencyKnee(sweep); knee >= 0 {
		rec.Serve = &sweep[knee]
		rec.ServeKneeRPS = sweep[knee].OfferedRPS
	}
	if rep, err := streamThroughputReport(); err == nil {
		rec.Stream = rep
	} else {
		t.Fatalf("stream throughput benchmark: %v", err)
	}
	for _, p := range pairs {
		base := testing.Benchmark(p.base)
		cand := testing.Benchmark(p.cand)
		rec.Benchmarks = append(rec.Benchmarks, benchPairEntry{
			Name:        p.name,
			Baseline:    p.baseline,
			Candidate:   p.candidate,
			BaselineNs:  base.NsPerOp(),
			CandidateNs: cand.NsPerOp(),
			Speedup:     float64(base.NsPerOp()) / float64(cand.NsPerOp()),
		})
	}
	var doc benchDoc
	if buf, err := os.ReadFile("BENCH_compute.json"); err == nil {
		// A file that exists but does not parse — or parses to no history
		// records (e.g. a legacy flat schema, whose unknown fields
		// Unmarshal would silently ignore) — must stop the run:
		// overwriting it would wipe the per-PR history. Migrate or delete
		// the file by hand to proceed.
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatalf("BENCH_compute.json exists but does not parse (%v); refusing to overwrite history", err)
		}
		if len(doc.History) == 0 {
			t.Fatalf("BENCH_compute.json exists but holds no history records (legacy schema?); refusing to overwrite it")
		}
	}
	doc.Note = "per-PR kernel timing records; speedup = baseline_ns_op/candidate_ns_op; serial-vs-parallel pairs are meaningful only when numcpu > 1"
	kept := doc.History[:0]
	for _, r := range doc.History {
		if r.Label != label {
			kept = append(kept, r)
		}
	}
	doc.History = append(kept, rec)
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_compute.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	r := tensor.NewRand(8, 8)
	params := []*nn.Param{
		nn.NewParam("w", tensor.RandN(r, 0, 1, 256, 256)),
	}
	params[0].Grad.CopyFrom(tensor.RandN(r, 0, 1, 256, 256))
	opt := train.NewAdam(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(params)
	}
}
