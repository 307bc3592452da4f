// Command perfbench is the repository benchmark. It runs one named
// workload of the snnsec stack from outside, through the packages' public
// functions and hooks, checks every output it produces, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the workload once untraced and once traced,
// writes the spans to .bench_build/traces/ and reports the per-layer
// metrics and the tracing overhead. The line before the last carries the
// workload's named report (every metric by name and unit, the failure
// share, the runner shape and the trace file).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// traceDir receives the span file of each traced run.
var traceDir = filepath.Join(".bench_build", "traces")

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*result, error){
	"alg1-sweep":    runSweep,
	"pgd-curves":    runPGD,
	"serve-open":    runServe,
	"stream-replay": runReplay,
}

// endToEnd lists the untraced metrics every workload reports, with their
// units; BENCHMARK.json lists the same names.
var endToEnd = []unitName{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the traced metrics. A workload that does not reach a
// layer reports 0 for it.
var perLayer = []unitName{
	{"explore.train_s", "s"},
	{"explore.attack_s", "s"},
	{"explore.tail_idle_s", "s"},
	{"explore.accounted_share", "share"},
	{"explore.learnable_share", "share"},
	{"train.epoch_s", "s"},
	{"train.gate_s", "s"},
	{"train.opt_ms", "ms"},
	{"snn.forward_ms.T4", "ms"},
	{"snn.forward_ms.T8", "ms"},
	{"autodiff.backward_ms.T4", "ms"},
	{"autodiff.backward_ms.T8", "ms"},
	{"snn.spike_rate.h0", "share"},
	{"snn.spike_rate.h1", "share"},
	{"snn.spike_rate.h2", "share"},
	{"compute.sparse_share.matmul", "share"},
	{"compute.sparse_share.conv", "share"},
	{"compute.sparse_share.pool", "share"},
	{"attack.perturb_ms", "ms"},
	{"attack.predict_ms", "ms"},
	{"serve.idle.queue_ms", "ms"},
	{"serve.idle.wait_ms", "ms"},
	{"serve.idle.respond_ms", "ms"},
	{"serve.idle.forward_ms", "ms"},
	{"serve.idle.batch_n", "count"},
	{"serve.idle.forward_busy_share", "share"},
	{"serve.busy.queue_ms", "ms"},
	{"serve.busy.wait_ms", "ms"},
	{"serve.busy.respond_ms", "ms"},
	{"serve.busy.forward_ms", "ms"},
	{"serve.busy.batch_n", "count"},
	{"serve.busy.forward_busy_share", "share"},
	{"gen.late_ms", "ms"},
	{"stream.step_us", "us"},
	{"stream.bin_share", "share"},
	{"stream.windows", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_count", "count"},
	{"trace.overhead_share", "share"},
	{"trace.spans", "count"},
}

type unitName struct{ name, unit string }

// env is what a workload runs with.
type env struct {
	seed    uint64
	seconds time.Duration
	// tr is nil for an untraced run.
	tr *tracer
	sz size
	// expect holds the recorded outputs; nil skips the recorded-value
	// checks (the tiny size used by the tests has none).
	expect *expectations
}

// result is what a workload reports back.
type result struct {
	attempted, failed int
	mismatches        []string
	// metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one, without units.
	metrics map[string]float64
	// report lists the workload's own named metrics for the report line.
	report []reportItem
}

type reportItem struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(name string, v float64, unit string) {
	r.report = append(r.report, reportItem{name, v, unit})
}

// mismatch records an output that differs from what it must be.
func (r *result) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: alg1-sweep, pgd-curves, serve-open or stream-replay")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (alg1-sweep|pgd-curves|serve-open|stream-replay), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	expect, err := loadExpectations()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		sz:      benchSize(),
		expect:  expect,
	}
	if *traced == 1 {
		e.tr = newTracer()
	}
	res, traceFile, err := execute(e, wl, *name, traceDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, m := range res.mismatches {
		fmt.Fprintf(stderr, "perfbench: %s: output mismatch: %s\n", *name, m)
	}
	if err := printResult(stdout, *name, e, res, traceFile); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(res.mismatches) > 0 {
		return 1
	}
	return 0
}

// execute runs the workload and, for a traced run, adds the metrics every
// traced run shares and writes the span file.
func execute(e *env, wl func(*env) (*result, error), name, dir string) (*result, string, error) {
	res, err := wl(e)
	if err != nil {
		return nil, "", err
	}
	if e.tr == nil {
		res.metrics["rss_peak_mb"] = rssPeakMB()
		return res, "", nil
	}
	if err := probeBPTT(e, res); err != nil {
		return nil, "", err
	}
	spans := e.tr.snapshot()
	res.metrics["trace.spans"] = float64(len(spans))
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
	dropped, err := writeSpans(file, spans)
	if err != nil {
		return nil, "", err
	}
	if dropped > 0 {
		res.add("trace.spans_not_written", float64(dropped), "count")
	}
	return res, file, nil
}

func printResult(w io.Writer, name string, e *env, res *result, traceFile string) error {
	list := endToEnd
	if e.tr != nil {
		list = perLayer
	}
	sum := summary{
		Correct:   len(res.mismatches) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(list)),
	}
	for _, m := range list {
		v, ok := res.metrics[m.name]
		if !ok && e.tr == nil {
			return fmt.Errorf("%s: workload did not report %s", name, m.name)
		}
		sum.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if sum.Attempted < 1 {
		return errors.New(name + ": no operation attempted")
	}
	res.add("fail_share", share(float64(res.failed), float64(res.attempted)), "share")
	report := struct {
		Workload   string       `json:"workload"`
		Seed       uint64       `json:"seed"`
		Traced     bool         `json:"traced"`
		Runner     runnerShape  `json:"runner"`
		Report     []reportItem `json:"report"`
		Mismatches []string     `json:"mismatches,omitempty"`
		TraceFile  string       `json:"trace_file,omitempty"`
	}{name, e.seed, e.tr != nil, shape(), res.report, res.mismatches, traceFile}
	enc := json.NewEncoder(w)
	if err := enc.Encode(report); err != nil {
		return err
	}
	return enc.Encode(sum)
}

// measureFor runs step until d has elapsed, at least once, and returns
// each step's wall time in seconds.
func measureFor(d time.Duration, step func() error) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		t0 := time.Now()
		if err := step(); err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return walls, nil
}

// setupRepeated builds a workload's inputs n times and returns the last
// build with the median set-up time in seconds. Builds are deterministic,
// so every repetition yields the same inputs. The set-up's garbage is
// collected before the measured region starts.
func setupRepeated[T any](n int, build func() (T, error)) (T, float64, error) {
	defer runtime.GC()
	var out T
	walls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return out, 0, fmt.Errorf("setup: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		out = v
	}
	return out, median(walls), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
