package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"

	"snnsec/internal/core"
)

// point is one (Vth, T) structural point.
type point struct {
	Vth float64
	T   int
}

// size fixes every input dimension of the four workloads. benchSize is
// what the benchmark runs; tinySize exists for the smoke tests.
type size struct {
	// scale is the preset of the sweep and of every model trained in
	// set-up.
	scale core.Scale
	// setupReps is how many times a workload builds its inputs to report
	// the median set-up time; trainReps the same for set-ups that train
	// models, which cost seconds each.
	setupReps, trainReps int
	// pgdSNN are the spiking points attacked beside the CNN.
	pgdSNN []point
	// serve is the served model's structural point.
	serve point
	// idleRPS, busyRPS and the ladder (from ladderStart, ×ladderStep up
	// to ladderTop) shape the open loop; sloMS is the latency limit on
	// the p99 of the busy phase and the ladder's rungs.
	idleRPS, busyRPS                   float64
	ladderStart, ladderStep, ladderTop float64
	sloMS                              float64
	// burst is how many requests fall due at once when the open loop
	// looks for the peak rate: the server's default batch cap.
	burst int
	// minTailSamples is the smallest phase the open loop runs, so that
	// each busy or ladder phase can report its p99.
	minTailSamples int
	// streamLabels is the digit sequence of the replayed event stream.
	streamLabels []int
}

// benchSize is Algorithm 1 at the bench preset over the full Vth axis and
// T ∈ {4, 8}: eight points from dense spiking to near silence, one of them
// learnable.
func benchSize() size {
	s := core.BenchScale()
	s.Ts = []int{4, 8}
	return size{
		scale:          s,
		setupReps:      9,
		trainReps:      2,
		pgdSNN:         []point{{0.5, 8}, {1, 8}},
		serve:          point{1, 12},
		idleRPS:        100,
		busyRPS:        350,
		ladderStart:    600,
		ladderStep:     1.1,
		ladderTop:      2000,
		sloMS:          100,
		burst:          64,
		minTailSamples: 1000,
		streamLabels:   []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
}

// tinySize runs every workload in well under a second of compute.
func tinySize() size {
	s := core.TinyScale()
	return size{
		scale:          s,
		setupReps:      2,
		trainReps:      1,
		pgdSNN:         []point{{0.5, 2}},
		serve:          point{1, 2},
		idleRPS:        100,
		busyRPS:        400,
		ladderStart:    800,
		ladderStep:     2,
		ladderTop:      800,
		sloMS:          1000,
		burst:          20,
		minTailSamples: 40,
		streamLabels:   []int{3, 1},
	}
}

// variants is how many input variants the seeded workloads cycle
// through; each has its recorded outputs.
const variants = 4

func variant(seed uint64) int { return int(seed % variants) }

// expectations are the outputs recorded for the bench size at the commit
// that defined the benchmark. Every run compares against them.
type expectations struct {
	Sweep struct {
		Digest    string `json:"digest"`
		Learnable int    `json:"learnable"`
	} `json:"alg1-sweep"`
	// PGD maps variant → model name → robust accuracy per ε.
	PGD []map[string][]float64 `json:"pgd-curves"`
	// Stream is the digest of the result lines per variant.
	Stream []string `json:"stream-replay"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpectations() (*expectations, error) {
	var x expectations
	dec := json.NewDecoder(bytes.NewReader(expectedJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&x); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &x, nil
}
