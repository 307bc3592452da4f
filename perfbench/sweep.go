package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"snnsec/internal/compute"
	"snnsec/internal/core"
	"snnsec/internal/dataset"
	"snnsec/internal/explore"
	"snnsec/internal/obs"
	"snnsec/internal/snn"
	"snnsec/internal/train"
)

// runSweep is the alg1-sweep workload: Algorithm 1 at the bench preset
// through core.RunGrid. The job is the preset itself, so every seed runs
// the same inputs. The traced run replays the same sweep point by point
// through explore.TrainPointAt and AttackPointAt with hooks attached and
// must reproduce RunGrid's result byte for byte.
func runSweep(e *env) (*result, error) {
	s := e.sz.scale
	type data struct{ train, test *dataset.Dataset }
	reps := e.sz.setupReps
	if e.tr != nil {
		reps = 1
	}
	d, setupS, err := setupRepeated(reps, func() (data, error) {
		tr, te, err := core.LoadData(s.Data)
		return data{tr, te}, err
	})
	if err != nil {
		return nil, err
	}
	res := &result{metrics: make(map[string]float64)}

	t0 := time.Now()
	grid, err := core.RunGrid(s, nil)
	if err != nil {
		return nil, fmt.Errorf("RunGrid: %w", err)
	}
	sweepS := time.Since(t0).Seconds()
	digest, err := sweepDigest(grid)
	if err != nil {
		return nil, err
	}
	checkSweep(e, res, grid, digest, "RunGrid")
	res.attempted = len(grid.Points)
	for _, p := range grid.Points {
		if p.Err != nil {
			res.failed++
		}
	}
	res.add("setup_s", setupS, "s")
	res.add("sweep_s", sweepS, "s")
	res.add("learnable", float64(grid.LearnableCount()), "count")
	if e.tr == nil {
		res.metrics["setup_s"] = setupS
		res.metrics["work_per_s"] = float64(len(grid.Points)) / sweepS
		res.metrics["latency_ms"] = sweepS * 1000
		return res, nil
	}

	// Metrics collection stays disarmed in untraced runs.
	obs.Arm()
	agg := &layerAgg{}
	before := readCounters()
	traced, st, err := tracedSweep(e, agg, s, d.train, d.test)
	if err != nil {
		return nil, err
	}
	after := readCounters()
	tdigest, err := sweepDigest(traced)
	if err != nil {
		return nil, err
	}
	if tdigest != digest {
		res.mismatch("traced sweep digest %s differs from RunGrid's %s", tdigest, digest)
	}
	checkSweep(e, res, traced, tdigest, "traced sweep")
	m := res.metrics
	m["explore.train_s"] = st.trainS
	m["explore.attack_s"] = st.attackS
	m["explore.tail_idle_s"] = st.idleS
	m["explore.accounted_share"] = (st.trainS + st.attackS + st.idleS) / (float64(st.workers) * st.wallS)
	m["explore.learnable_share"] = float64(traced.LearnableCount()) / float64(len(traced.Points))
	m["trace.overhead_share"] = st.wallS/sweepS - 1
	agg.store(m)
	addDeltas(m, before, after)
	res.add("traced_sweep_s", st.wallS, "s")
	res.add("workers", float64(st.workers), "count")
	return res, nil
}

func sweepDigest(r *explore.Result) (string, error) {
	h := sha256.New()
	if err := r.WriteJSON(h); err != nil {
		return "", fmt.Errorf("serialise sweep: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func checkSweep(e *env, res *result, r *explore.Result, digest, what string) {
	if e.expect == nil {
		return
	}
	if want := e.expect.Sweep.Digest; digest != want {
		res.mismatch("%s result digest %s, recorded %s", what, digest, want)
	}
	if got, want := r.LearnableCount(), e.expect.Sweep.Learnable; got != want {
		res.mismatch("%s learnable count %d, recorded %d", what, got, want)
	}
}

// sweepStats is the explore-layer breakdown of a traced sweep.
type sweepStats struct {
	trainS, attackS, idleS, wallS float64
	workers                       int
}

// tracedSweep runs Algorithm 1 with the schedule of explore.Run — every
// point trains, then every point is attacked, each phase on the
// configured workers pulling points in T-major order — but through the
// per-point entry points, so that spans wrap each point's training and
// attack and hooks time the epochs, the gate and the optimizer.
func tracedSweep(e *env, agg *layerAgg, s core.Scale, trainDS, testDS *dataset.Dataset) (*explore.Result, sweepStats, error) {
	var st sweepStats
	base := s.GridConfig()
	if err := base.Validate(); err != nil {
		return nil, st, err
	}
	st.workers = base.Workers
	n := len(base.Vths) * len(base.Ts)
	start := time.Now()
	root := e.tr.begin("explore.sweep", "", 0)

	trained := make([]explore.TrainedPoint, n)
	idle, err := phase(base.Workers, base.KernelWorkers, n, func(idx int, be compute.Backend) error {
		group := fmt.Sprintf("point:%d", idx)
		id := e.tr.begin("explore.train", group, root)
		h := newTrainHooks(e.tr, agg, group, id, time.Now())
		cfg := base
		cfg.Train.Log = h
		cfg.NewOptimizer = func() train.Optimizer { return h.optimizer(base.NewOptimizer()) }
		cfg.Build = func(vth float64, T int) (*snn.Network, error) {
			net, err := base.Build(vth, T)
			if err == nil {
				h.watch(net)
			}
			return net, err
		}
		tp, err := explore.TrainPointAt(cfg, be, idx, trainDS, testDS)
		h.gate(time.Now())
		e.tr.end(id)
		if tp.Net != nil {
			tp.Net.Record = nil
		}
		trained[idx] = tp
		return err
	})
	st.idleS += idle
	if err != nil {
		return nil, st, err
	}

	res := explore.NewPartialResult(base.Vths, base.Ts, base.Epsilons)
	idle, err = phase(base.Workers, base.KernelWorkers, n, func(idx int, be compute.Backend) error {
		id := e.tr.begin("explore.attack", fmt.Sprintf("point:%d", idx), root)
		pt, err := explore.AttackPointAt(base, be, idx, &trained[idx], testDS, base.Epsilons)
		e.tr.end(id)
		res.Set(idx, pt)
		return err
	})
	st.idleS += idle
	e.tr.end(root)
	st.wallS = time.Since(start).Seconds()
	if err != nil {
		return nil, st, err
	}
	spans := e.tr.snapshot()
	st.trainS = sum(durations(spans, "explore.train"))
	st.attackS = sum(durations(spans, "explore.attack"))
	return res, st, nil
}

// phase runs job for grid indices 0..n-1 on the given number of workers,
// each with its own kernel backend of width kw, and returns the workers'
// idle time at the end of the phase: how long each waited, after its
// last point, for the phase's last point to finish.
func phase(workers, kw, n int, job func(idx int, be compute.Backend) error) (float64, error) {
	next := make(chan int)
	lastEnd := make([]time.Time, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			be := compute.New(kw)
			lastEnd[w] = time.Now()
			for idx := range next {
				if err := job(idx, be); err != nil && errs[w] == nil {
					errs[w] = err
				}
				lastEnd[w] = time.Now()
			}
		}()
	}
	for idx := 0; idx < n; idx++ {
		next <- idx
	}
	close(next)
	wg.Wait()
	end := lastEnd[0]
	for _, t := range lastEnd {
		if t.After(end) {
			end = t
		}
	}
	idle := 0.0
	for _, t := range lastEnd {
		idle += end.Sub(t).Seconds()
	}
	return idle, errors.Join(errs...)
}
