package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"snnsec/internal/obs"
)

// runnerShape is stored with every result so figures from different
// machines or toolchains are never compared by accident.
type runnerShape struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, "unknown"
	// outside a git checkout; Source is a digest of the module's Go
	// sources, which identifies the code in either case.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func shape() runnerShape {
	return runnerShape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every Go source, assembly
// and go.mod file under root, skipping hidden directories such as the
// build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".s" && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path) + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MB, or the
// Go runtime's total obtained memory where /proc is unavailable.
func rssPeakMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// dispatchCounts reads the compute layer's sparse-vs-dense dispatch
// counters, keyed "family/choice", from the obs registry's exposition.
func dispatchCounts() map[string]float64 {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return nil
	}
	out := make(map[string]float64)
	const prefix = "snnsec_compute_dispatch_total{"
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		labels, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		var family, choice string
		for _, kv := range strings.Split(labels, ",") {
			k, v, _ := strings.Cut(kv, "=")
			v = strings.Trim(v, `"`)
			switch k {
			case "family":
				family = v
			case "choice":
				choice = v
			}
		}
		out[family+"/"+choice] = v
	}
	return out
}

// layerCounters snapshots the counters a traced run reports as deltas
// over its measured region: dispatch decisions and Go allocation.
type layerCounters struct {
	dispatch   map[string]float64
	totalAlloc uint64
	numGC      uint32
}

func readCounters() layerCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return layerCounters{dispatch: dispatchCounts(), totalAlloc: m.TotalAlloc, numGC: m.NumGC}
}

// addDeltas stores the compute and go metrics of the region between
// before and after.
func addDeltas(metrics map[string]float64, before, after layerCounters) {
	for _, fam := range []string{"matmul", "conv", "pool"} {
		sp := after.dispatch[fam+"/sparse"] - before.dispatch[fam+"/sparse"]
		de := after.dispatch[fam+"/dense"] - before.dispatch[fam+"/dense"]
		metrics["compute.sparse_share."+fam] = share(sp, sp+de)
	}
	metrics["go.alloc_mb"] = float64(after.totalAlloc-before.totalAlloc) / (1 << 20)
	metrics["go.gc_count"] = float64(after.numGC - before.numGC)
}
