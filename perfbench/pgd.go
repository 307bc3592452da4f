package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"snnsec/internal/attack"
	"snnsec/internal/compute"
	"snnsec/internal/core"
	"snnsec/internal/dataset"
	"snnsec/internal/nn"
	"snnsec/internal/obs"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
)

// pgdModels are the victims of the pgd-curves workload, trained in
// set-up: the LeNet-5 CNN and the spiking LeNet-5s of size.pgdSNN.
type pgdModels struct {
	test   *dataset.Dataset
	names  []string
	models []nn.Classifier
	nets   []*snn.Network // the spiking models, nil for the CNN
	clean  []float64
}

// buildPGD trains the victims concurrently, each on a one-wide backend as
// the sweep trains its points.
func buildPGD(e *env, agg *layerAgg) (*pgdModels, error) {
	s := e.sz.scale
	trainDS, testDS, err := core.LoadData(s.Data)
	if err != nil {
		return nil, err
	}
	m := &pgdModels{test: testDS}
	cnn, err := core.NewLeNet5CNN(s.Net)
	if err != nil {
		return nil, err
	}
	m.names, m.models, m.nets = []string{"cnn"}, []nn.Classifier{cnn}, []*snn.Network{nil}
	for _, p := range e.sz.pgdSNN {
		net, err := core.NewSpikingLeNet5(s.Net, p.Vth, p.T, core.SNNOptions{})
		if err != nil {
			return nil, err
		}
		m.names = append(m.names, fmt.Sprintf("snn-%g-%d", p.Vth, p.T))
		m.models = append(m.models, net)
		m.nets = append(m.nets, net)
	}
	m.clean = make([]float64, len(m.models))
	errs := make([]error, len(m.models))
	var wg sync.WaitGroup
	for i := range m.models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.clean[i], errs[i] = fitModel(e, agg, m.names[i], m.models[i], m.nets[i], trainDS, testDS, compute.New(1))
		}()
	}
	wg.Wait()
	return m, errors.Join(errs...)
}

// pgdTrace instruments one pass: each curve, each ε's evaluation (opened
// when CurveOn asks for the ε's attack) and each Perturb call get a span.
type pgdTrace struct {
	e        *env
	agg      *layerAgg
	curve    int64
	eval     int64
	perturbS []float64
}

// timedAttack wraps the attack CurveOn evaluates with.
type timedAttack struct {
	attack.Attack
	t *pgdTrace
}

func (a timedAttack) Perturb(model nn.Classifier, x *tensor.Tensor, y []int) *tensor.Tensor {
	t0 := time.Now()
	adv := a.Attack.Perturb(model, x, y)
	t1 := time.Now()
	a.t.e.tr.record("attack.perturb", "", a.t.eval, t0, t1)
	a.t.perturbS = append(a.t.perturbS, t1.Sub(t0).Seconds())
	if net, ok := model.(*snn.Network); ok {
		a.t.agg.addRates(net.Record)
	}
	return adv
}

// pass computes every victim's robustness curve once. The Poisson
// encoders are reseeded first, so every pass, whatever ran before it,
// computes the same curves; v selects the PGD random-start stream.
func (m *pgdModels) pass(e *env, v int, t *pgdTrace) [][]attack.CurvePoint {
	s := e.sz.scale
	bounds := attack.DatasetBounds(m.test)
	out := make([][]attack.CurvePoint, len(m.models))
	for i, model := range m.models {
		if net := m.nets[i]; net != nil {
			if enc, ok := net.Encoder.(*snn.PoissonEncoder); ok {
				enc.Reseed(s.Net.Seed, 0xe4c0de)
			}
		}
		mk := func(eps float64) attack.Attack {
			return attack.PGD{
				Eps:         eps,
				Steps:       s.AttackSteps,
				RandomStart: true,
				Rand:        tensor.NewRand(s.Seed+uint64(v), 0xadd),
				Bounds:      bounds,
			}
		}
		if t != nil {
			inner := mk
			t.curve = e.tr.begin("attack.curve", "curve:"+m.names[i], 0)
			mk = func(eps float64) attack.Attack {
				e.tr.end(t.eval)
				t.eval = e.tr.begin("attack.evaluate", fmt.Sprintf("curve:%s:eps%g", m.names[i], eps), t.curve)
				return timedAttack{Attack: inner(eps), t: t}
			}
		}
		out[i] = attack.CurveOn(nil, model, m.test, s.CurveEpsilons, mk, s.EvalBatch)
		if t != nil {
			e.tr.end(t.eval)
			e.tr.end(t.curve)
			t.eval = 0
		}
	}
	return out
}

// samplesPerPass counts the adversarial samples one pass crafts and
// scores: every test sample at every non-zero ε against every victim.
func (m *pgdModels) samplesPerPass(eps []float64) int {
	k := 0
	for _, e := range eps {
		if e != 0 {
			k++
		}
	}
	return k * m.test.Len() * len(m.models)
}

func (m *pgdModels) check(e *env, res *result, v int, curves [][]attack.CurvePoint) {
	if e.expect == nil {
		return
	}
	var want map[string][]float64
	if v < len(e.expect.PGD) {
		want = e.expect.PGD[v]
	}
	for i, c := range curves {
		got := make([]float64, len(c))
		for j, p := range c {
			got[j] = p.RobustAccuracy
		}
		w := want[m.names[i]]
		same := len(w) == len(got)
		for j := 0; same && j < len(w); j++ {
			same = w[j] == got[j]
		}
		if !same {
			res.mismatch("variant %d %s robust accuracies %v, recorded %v", v, m.names[i], got, w)
		}
	}
}

// runPGD is the pgd-curves workload: Figure 1/9-style PGD ε-curves
// through attack.CurveOn against models trained in set-up.
func runPGD(e *env) (*result, error) {
	reps := e.sz.trainReps
	agg := &layerAgg{}
	if e.tr != nil {
		reps = 1
	}
	m, setupS, err := setupRepeated(reps, func() (*pgdModels, error) { return buildPGD(e, agg) })
	if err != nil {
		return nil, err
	}
	s := e.sz.scale
	v := variant(e.seed)
	perPass := m.samplesPerPass(s.CurveEpsilons)
	res := &result{metrics: make(map[string]float64)}
	passes := 0
	walls, err := measureFor(e.seconds, func() error {
		m.check(e, res, v, m.pass(e, v, nil))
		passes++
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.attempted = passes * perPass
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(perPass) / w
	}
	res.add("setup_s", setupS, "s")
	res.add("pgd_samples_per_s", median(rates), "1/s")
	res.add("pass_s", median(walls), "s")
	res.add("passes", float64(passes), "count")
	for i, name := range m.names {
		res.add("clean_accuracy."+name, m.clean[i], "share")
	}
	if e.tr == nil {
		res.metrics["setup_s"] = setupS
		res.metrics["work_per_s"] = median(rates)
		res.metrics["latency_ms"] = median(walls) * 1000
		return res, nil
	}

	// Metrics collection stays disarmed in untraced runs.
	obs.Arm()
	t := &pgdTrace{e: e, agg: agg}
	before := readCounters()
	for i := range m.nets {
		if m.nets[i] != nil {
			m.nets[i].Record = &snn.Trace{}
		}
	}
	t0 := time.Now()
	m.check(e, res, v, m.pass(e, v, t))
	tracedS := time.Since(t0).Seconds()
	after := readCounters()
	spans := e.tr.snapshot()
	curveS := sum(durations(spans, "attack.curve"))
	batches := len(m.models) * len(s.CurveEpsilons) * ((m.test.Len() + s.EvalBatch - 1) / s.EvalBatch)
	met := res.metrics
	met["attack.perturb_ms"] = mean(t.perturbS) * 1000
	met["attack.predict_ms"] = (curveS - sum(t.perturbS)) / float64(batches) * 1000
	met["trace.overhead_share"] = tracedS/median(walls) - 1
	agg.store(met)
	addDeltas(met, before, after)
	res.add("traced_pass_s", tracedS, "s")
	return res, nil
}
