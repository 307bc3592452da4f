package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload at the tiny size, untraced and
// traced, and checks the printed result against the output contract.
// The tiny size has no recorded outputs; the checks that compare against
// a second computation (served logits against the offline engine, the
// traced sweep against RunGrid) still run.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains tiny models")
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				e := &env{seed: 7, seconds: 200 * time.Millisecond, sz: tinySize()}
				if traced {
					e.tr = newTracer()
				}
				res, file, err := execute(e, workloads[name], name, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if len(res.mismatches) > 0 {
					t.Fatalf("mismatches: %v", res.mismatches)
				}
				if res.failed != 0 {
					t.Errorf("%d of %d operations failed", res.failed, res.attempted)
				}
				var out bytes.Buffer
				if err := printResult(&out, name, e, res, file); err != nil {
					t.Fatal(err)
				}
				checkSummary(t, out.String(), traced)
				if traced {
					if _, err := os.Stat(file); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}

// checkSummary checks the last line: exactly the four keys, every metric
// of the run's list with its unit, and no end-to-end metric at 0.
func checkSummary(t *testing.T, out string, traced bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("last line keys: %v", keys)
	}
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	if !sum.Correct || sum.Attempted < 1 || len(sum.Metrics) != len(list) {
		t.Fatalf("summary %+v", sum)
	}
	for _, m := range list {
		got, ok := sum.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("metric %s: %+v, want unit %s", m.name, got, m.unit)
		}
		if !traced && got.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v", m.name, got.Value)
		}
	}
}
