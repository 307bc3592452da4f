package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snnsec/internal/core"
	"snnsec/internal/modelio"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// TestMain lets this test binary stand in for the snnsec binary when the
// distributed grid coordinator under test re-executes itself
// (os.Executable()) as a shard worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "grid-worker" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "snnsec:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no subcommand accepted")
	}
}

func TestRunUnknown(t *testing.T) {
	err := run([]string{"bogus"})
	if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestRunVersionAndHelp(t *testing.T) {
	if err := run([]string{"version"}); err != nil {
		t.Errorf("version: %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func TestInfoUsage(t *testing.T) {
	if err := run([]string{"info"}); err == nil {
		t.Error("info without args accepted")
	}
	if err := run([]string{"info", "/nonexistent/ckpt"}); err == nil {
		t.Error("info on missing file accepted")
	}
}

func TestAttackRequiresCkpt(t *testing.T) {
	if err := run([]string{"attack"}); err == nil || !strings.Contains(err.Error(), "-ckpt") {
		t.Errorf("attack without ckpt: %v", err)
	}
}

func TestInfoOnRealCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	r := tensor.NewRand(1, 1)
	params := []*nn.Param{nn.NewParam("w", tensor.RandN(r, 0, 1, 2, 2))}
	if err := modelio.SaveFile(path, map[string]string{"model": "cnn"}, params); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"info", path}); err != nil {
		t.Errorf("info: %v", err)
	}
}

func TestRebuildModelUnknownKind(t *testing.T) {
	s := core.BenchScale()
	m := &modelio.Model{Meta: map[string]string{"model": "transformer"}}
	if _, _, err := core.BuildFromCheckpoint(s, m); err == nil {
		t.Error("unknown model kind accepted")
	}
	m = &modelio.Model{Meta: map[string]string{"model": "snn"}}
	if _, _, err := core.BuildFromCheckpoint(s, m); err == nil {
		t.Error("snn checkpoint without vth accepted")
	}
}

func TestTrainBadModelKind(t *testing.T) {
	if err := run([]string{"train", "-model", "mlp"}); err == nil {
		t.Error("unknown model kind accepted by train")
	}
}

// TestGridShardedCLISmoke is the end-to-end distributed smoke: a
// two-shard run with real grid-worker subprocesses, sliced by
// -max-points, killed (by exhausting its budget), resumed — and the
// final merged JSON must be byte-identical to the in-process run's.
func TestGridShardedCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess grid smoke in -short mode")
	}
	t.Setenv(core.ScaleEnv, "tiny")
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	distJSON := filepath.Join(dir, "dist.json")
	singleJSON := filepath.Join(dir, "single.json")

	// Partial first invocation: budget of 2 of the 4 tiny-grid points.
	if err := run([]string{"grid", "-shards", "2", "-checkpoint-dir", ckpt, "-max-points", "2"}); err != nil {
		t.Fatalf("partial sharded grid: %v", err)
	}
	// Resume to completion.
	if err := run([]string{"grid", "-shards", "2", "-checkpoint-dir", ckpt, "-resume", "-json", distJSON}); err != nil {
		t.Fatalf("resumed sharded grid: %v", err)
	}
	// In-process reference.
	if err := run([]string{"grid", "-json", singleJSON}); err != nil {
		t.Fatalf("in-process grid: %v", err)
	}
	dist, err := os.ReadFile(distJSON)
	if err != nil {
		t.Fatal(err)
	}
	single, err := os.ReadFile(singleJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dist, single) {
		t.Errorf("sharded+resumed result differs from in-process run:\n got: %s\nwant: %s", dist, single)
	}
	// The checkpoint holds one point file and one model snapshot per
	// grid point.
	entries, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	points, models := 0, 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "point-") {
			points++
		}
		if strings.HasPrefix(e.Name(), "model-") {
			models++
		}
	}
	if points != 4 || models != 4 {
		t.Errorf("checkpoint has %d point files and %d model snapshots, want 4 and 4", points, models)
	}
}

// TestGridInProcessResumeMatchesSharded: checkpointing, budgets and
// resume work without -shards — an in-process partial run resumed to
// completion is byte-identical to a two-shard subprocess run.
func TestGridInProcessResumeMatchesSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess grid smoke in -short mode")
	}
	t.Setenv(core.ScaleEnv, "tiny")
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	inprocJSON := filepath.Join(dir, "inproc.json")
	distJSON := filepath.Join(dir, "dist.json")

	if err := run([]string{"grid", "-resume"}); err == nil {
		t.Error("-resume without -checkpoint-dir accepted")
	}
	if err := run([]string{"grid", "-checkpoint-dir", ckpt, "-max-points", "2"}); err != nil {
		t.Fatalf("partial in-process grid: %v", err)
	}
	if err := run([]string{"grid", "-checkpoint-dir", ckpt, "-resume", "-json", inprocJSON}); err != nil {
		t.Fatalf("resumed in-process grid: %v", err)
	}
	if err := run([]string{"grid", "-shards", "2", "-json", distJSON}); err != nil {
		t.Fatalf("sharded grid: %v", err)
	}
	inproc, err := os.ReadFile(inprocJSON)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := os.ReadFile(distJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inproc, dist) {
		t.Errorf("in-process partial+resume result differs from the sharded run:\n got: %s\nwant: %s", inproc, dist)
	}
}

// TestGlobalFlagValidation pins the strict global-flag contract: bad
// values are errors, never silently clamped.
func TestGlobalFlagValidation(t *testing.T) {
	if err := run([]string{"-workers", "-2", "version"}); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("negative -workers: %v", err)
	}
}

func TestTrainAttackRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI round trip in -short mode")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "cnn.ckpt")
	if err := run([]string{"train", "-model", "cnn", "-out", ckpt}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := run([]string{"info", ckpt}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := run([]string{"attack", "-ckpt", ckpt, "-attack", "fgsm", "-eps", "0.5"}); err != nil {
		t.Fatalf("attack: %v", err)
	}
	if err := run([]string{"attack", "-ckpt", ckpt, "-attack", "nope", "-eps", "0.5"}); err == nil {
		t.Error("unknown attack kind accepted")
	}
	if err := run([]string{"attack", "-ckpt", ckpt, "-eps", "abc"}); err == nil {
		t.Error("malformed eps accepted")
	}
}
