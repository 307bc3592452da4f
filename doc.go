// Package snnsec is a from-scratch Go reproduction of "Securing Deep
// Spiking Neural Networks against Adversarial Attacks through Inherent
// Structural Parameters" (El-Allami, Marchisio, Shafique, Alouani —
// DATE 2021, arXiv:2012.05321).
//
// The paper shows that the robustness of spiking neural networks (SNNs)
// against white-box gradient attacks (PGD) is strongly conditioned by two
// structural parameters: the neuron firing threshold Vth and the
// simulation time window T. This module re-implements the full pipeline
// the paper depends on — a tensor/autodiff substrate, a non-spiking CNN
// baseline (LeNet-5), a leaky-integrate-and-fire spiking substrate trained
// with surrogate-gradient BPTT, an adversarial attack library, a dataset,
// and the (Vth, T) exploration methodology of the paper's Algorithm 1 —
// using only the Go standard library.
//
// Layout:
//
//	internal/compute   execution backends: serial/parallel kernels, buffer pool
//	internal/tensor    dense float64 tensor kernels
//	internal/autodiff  tape-based reverse-mode automatic differentiation
//	internal/nn        non-spiking layers (Conv2D, Linear, pooling, ...)
//	internal/snn       LIF neurons, surrogate gradients, encoders, BPTT
//	internal/dataset   synthetic MNIST-like digits + MNIST IDX loader
//	internal/train     optimisers, training loop, metrics
//	internal/attack    FGSM, PGD, noise baselines, robustness evaluation
//	internal/explore   Algorithm 1 per grid point: train, gate, PGD sweep
//	internal/grid      the sweep scheduler: in-process or subprocess workers,
//	                   retries, checkpoints and resume
//	internal/report    heatmaps, curves, CSV/markdown rendering
//	internal/modelio   model serialisation
//	internal/obs       metrics, Prometheus exposition, leveled logging
//	internal/core      experiment presets mirroring the paper's setup
//	cmd/snnsec         command-line interface
//	examples/          runnable example programs
//
// Every tensor kernel executes through a compute.Backend (selected
// per-tape, with a process-wide default): Serial runs inline, Parallel
// partitions kernels over a shared NumCPU-wide worker pool and recycles
// scratch buffers through a sync.Pool. The two backends are
// bit-identical by construction, and bounded-width backends let
// kernel-level parallelism compose with the grid-level parallelism of
// internal/grid without oversubscription. Convolution runs as a
// batched im2col pipeline — one matmul per batch rather than per image —
// on top of cache-blocked, register-tiled matmul micro-kernels (AVX on
// amd64, scalar tiles elsewhere) that are bit-identical to the naive
// reference kernels they replaced; BENCH_compute.json tracks the kernel
// timings per PR.
//
// The benchmark harness in bench_test.go regenerates every figure of the
// paper's evaluation (Figures 1, 6, 7, 8 and 9) at a CPU-friendly scale.
// README.md has the quickstart and CLI tour, DESIGN.md the architecture
// and numerical conventions, and EXPERIMENTS.md the experiment guide.
package snnsec

// Version is the library version reported by the CLI.
const Version = "1.0.0"
