// Package grid is the one scheduler of Algorithm 1's (Vth, T)
// exploration: it spreads the grid of internal/explore over workers,
// streams per-point results back over a line-delimited JSON protocol,
// persists every completed point to a durable on-disk checkpoint, and
// merges the points into an explore.Result. core.RunGrid and snnsec grid
// run every sweep through it.
//
// # Architecture
//
// The coordinator (Run) owns scheduling: the pending points are split
// into one contiguous block per shard (static assignment keeps each
// worker's points cache- and locality-friendly), workers pull one point
// at a time, and a worker that drains its own block steals from the back
// of the richest remaining block, so straggler shards do not serialise
// the run. A crashed worker's in-flight point is returned to the queue
// and reassigned; the run fails only when every worker is gone.
//
// There are two launchers and one scheduler. InProcess runs each worker
// as a goroutine over in-memory pipes; ExecLauncher spawns worker
// processes, and a custom Launcher can attach any byte stream, so remote
// launch wrappers (ssh, containers) need nothing beyond stdin/stdout
// plumbing. Retries, poison-point quarantine, checkpoint/resume and
// progress are the same for all of them. Each worker receives a kernel
// budget with its hello message: explore's Workers × KernelWorkers ≤
// budget rule, with the shards as the workers, so shards on one machine
// compose without oversubscribing it.
//
// # Determinism
//
// Every source of randomness under a grid point derives from the
// configuration seed and the point's T-major index (see the per-point
// entry points of internal/explore), and job specifications travel as
// JSON whose float64 encoding round-trips exactly. A merged result —
// from any launcher and shard count, including one resumed from a
// checkpoint — is therefore bit-identical to a serial explore.RunPointAt
// loop over the same job, which the tests assert byte-for-byte on the
// serialised result.
package grid

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"snnsec/internal/dataset"
	"snnsec/internal/explore"
)

// Job is a reconstructed grid job: the exploration configuration
// (including the network builder and optimiser factory, which cannot
// travel over the wire) plus a lazy dataset loader. Data is a function
// so the coordinator — which only needs the grid axes — never pays for
// loading the training set; workers call it once after the hello.
type Job struct {
	Config explore.Config
	// Data loads the train and test datasets. It must be deterministic:
	// every process of a run must see identical data.
	Data func() (trainDS, testDS *dataset.Dataset, err error)
}

// BuildJob reconstructs a grid job from its serialised specification.
// It runs in every process of a distributed run — coordinator and
// workers alike — and must be deterministic: two processes building the
// same spec must produce jobs whose per-point runs are bit-identical.
type BuildJob func(spec json.RawMessage) (Job, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]BuildJob{}
)

// Register installs a job builder under a name. Builders are resolved by
// name from the wire, so every binary participating in a run (usually
// just snnsec, as coordinator and as grid-worker) must register the same
// names; packages register in init.
func Register(name string, b BuildJob) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("grid: duplicate builder %q", name))
	}
	registry[name] = b
}

// Builders returns the registered builder names, sorted.
func Builders() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func resolveBuilder(name string) (BuildJob, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("grid: unknown job builder %q (registered: %v)", name, Builders())
	}
	return b, nil
}

// Spec names a grid job: a registered builder plus its serialised
// configuration. The same Spec is interpreted by the coordinator (for
// the grid axes and checkpoint fingerprint) and by every worker (to
// reconstruct the job).
type Spec struct {
	Builder string          `json:"builder"`
	Config  json.RawMessage `json:"config"`
}

// Build resolves the builder and reconstructs the job.
func (s Spec) Build() (Job, error) {
	b, err := resolveBuilder(s.Builder)
	if err != nil {
		return Job{}, err
	}
	return b(s.Config)
}

// Fingerprint returns a stable hash of the spec (builder name plus the
// whitespace-insensitive configuration JSON). Checkpoints record it so a
// resume against a different job is rejected instead of silently merging
// incompatible points.
func (s Spec) Fingerprint() string {
	var compact bytes.Buffer
	if err := json.Compact(&compact, s.Config); err != nil {
		compact.Reset()
		compact.Write(s.Config)
	}
	h := sha256.New()
	h.Write([]byte(s.Builder))
	h.Write([]byte{0})
	h.Write(compact.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}
