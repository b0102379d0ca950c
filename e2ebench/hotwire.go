package main

import (
	"math/rand"
	"sync/atomic"
	"time"
)

const (
	wireShards  = 3
	wireTenants = 24
	// wireRate is hot-wire's fixed open-loop rate in requests/s: about half
	// the capacity of the three-shard cluster. On a 2-vCPU Intel Xeon box
	// the cluster answered 438 requests/s when offered 5000/s, that is with
	// both callers sending back to back.
	wireRate = 220.0
	// wireInputsPerClass samples of each of a tenant's two classes give it
	// four one-sample inputs.
	wireInputsPerClass = 2
)

// wireOp is one open-loop request: a tenant and which of its inputs.
type wireOp struct{ tenant, input int }

// wireOps draws the request sequence: Zipf tenant popularity (rank =
// tenant index), uniform input choice.
func wireOps(seed int64, n, tenants, inputs int) []wireOp {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	z := newZipf(zipfS, tenants)
	ops := make([]wireOp, n)
	for i := range ops {
		ops[i] = wireOp{tenant: z.draw(rng, tenants), input: rng.Intn(inputs)}
	}
	return ops
}

// clusterSetup is one set-up of an HTTP workload: pretrain, build the
// cluster, prewarm the tenants through the router with their QoS classes.
// Prewarm first touches are tallied in setup. They run one at a time, so
// each times a personalization rather than its contention with another.
func clusterSetup(c *config, budget int64, snapshots bool, setup *tally) (*fleet, []*tenant, error) {
	w := newWorld()
	opts := serverOptions()
	opts.MemoryBudgetBytes = budget
	f, err := newCluster(w, wireShards, opts, snapshots, c.tr)
	if err != nil {
		return nil, nil, err
	}
	ts, err := makeTenants(0, c.seed, wireTenants, []int{2}, nil)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	for _, t := range ts {
		if err := personalizeHTTP(f, c.tr, t, setup); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return f, ts, nil
}

// repeatSetup runs set-up c.setupReps() times, keeping the last fleet, and
// returns the set-up times in seconds.
func repeatSetup(c *config, setup func() (*fleet, error)) (*fleet, []float64, error) {
	var f *fleet
	var times []float64
	for r := 0; r < c.setupReps(); r++ {
		if f != nil {
			f.Close()
		}
		start := time.Now()
		var err error
		if f, err = setup(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return f, times, nil
}

// openLoopRun is what an open-loop window measured besides its tally.
type openLoopRun struct {
	elapsed             time.Duration
	lagMS               []float64 // how late each request was sent
	reqBytes, respBytes int64
}

// openLoop sends ops at rate through the router on c.callers callers. A
// request is timed from when it was due, so a stall also charges the
// requests it delayed.
func openLoop(c *config, f *fleet, ts []*tenant, ops []wireOp, tl *tally) openLoopRun {
	due := openLoopDue(c.rate, len(ops))
	run := openLoopRun{lagMS: make([]float64, len(ops))}
	var reqBytes, respBytes atomic.Int64
	start := time.Now()
	parallel(len(ops), c.callers, func(_, i int) {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		run.lagMS[i] = ms(time.Since(at))
		op := ops[i]
		t := ts[op.tenant]
		preds, rq, rs, err := predictHTTP(f, c.tr, t, op.input)
		end := time.Now()
		reqBytes.Add(int64(rq))
		respBytes.Add(int64(rs))
		wrong := false
		if err == nil {
			err = t.check(op.input, preds)
			wrong = err != nil
		}
		tl.done("predict", end.Sub(at), len(preds), err, wrong)
	})
	run.elapsed = time.Since(start)
	run.reqBytes, run.respBytes = reqBytes.Load(), respBytes.Load()
	return run
}

// hotWire: interactive tenants through the front door. Three shards behind
// the router, 24 resident float32 tenants, open-loop one-sample predicts at
// a fixed rate.
func hotWire(c *config) (*report, []phase, error) {
	c.rec.Params["rate_rps"] = c.rate
	c.rec.Params["shards"] = wireShards
	c.rec.Params["tenants"] = wireTenants
	c.rec.Params["zipf_s"] = zipfS
	c.rec.Params["loop"] = "open"
	setup := newTally("setup")
	var ts []*tenant
	f, setupS, err := repeatSetup(c, func() (*fleet, error) {
		var f *fleet
		var err error
		f, ts, err = clusterSetup(c, 0, false, setup)
		return f, err
	})
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	for _, t := range ts {
		t.makeInputs(f.w, c.seed, wireInputsPerClass, 1)
		if err := t.encodeBodies(); err != nil {
			return nil, nil, err
		}
		if err := referenceFromOwner(f, t); err != nil {
			return nil, nil, err
		}
	}
	ops := wireOps(c.seed, int(c.rate*float64(c.seconds)), len(ts), len(ts[0].inputs))
	c.rec.Params["requests"] = len(ops)
	rep := &report{Record: c.rec}

	if !c.trace {
		win := newTally("window")
		run := openLoop(c, f, ts, ops, win)
		rep.EndToEnd, rep.Ungated = endToEnd(e2eInputs{
			setupS: setupS, predict: win.lat["predict"], personalize: setup.lat["personalize"],
			ret: win.lat["predict"], samples: win.samples, windowS: run.elapsed.Seconds(),
			accs: accuracies(ts), stats: f.stats(),
		})
		rep.PerLayer = metrics{"bench.gen_lag_p99_ms": pctMetric(percentile(sorted(run.lagMS), 0.99), "ms")}
		rep.Errors = append(requireBeyond(rep.EndToEnd, "predict_p50_ms", "return_p50_ms"),
			requireBeyond(rep.Ungated, "predict_p99_ms", "return_p90_ms")...)
		rep.finish(setup, win)
		return rep, []phase{win.p}, nil
	}

	half := len(ops) / 2
	plain, traced := newTally("window-untraced"), newTally("window-traced")
	var run openLoopRun
	before, after, err := tracedWindow(c, f,
		func() { openLoop(c, f, ts, ops[:half], plain) },
		func() { run = openLoop(c, f, ts, ops[half:], traced) })
	if err != nil {
		return nil, nil, err
	}
	float32Eng, err := residentEngine(f, ts[0])
	if err != nil {
		return nil, nil, err
	}
	replay, err := replayModules(f.w, classSets(ts[:2]), float32Eng, nil)
	if err != nil {
		return nil, nil, err
	}
	in := layerInputsOf(c, before, after, replay)
	in.reqBytes, in.respBytes, in.requests = float64(run.reqBytes), float64(run.respBytes), float64(traced.p.Sent)
	in.genLagP99 = percentile(sorted(run.lagMS), 0.99).Value
	in.tracedP50 = median(traced.lat["predict"])
	in.untracedP50 = median(plain.lat["predict"])
	in.flops = flopsRatios(ts)
	rep.PerLayer = layerMetrics(in)
	rep.finish(setup, plain, traced)
	return rep, []phase{plain.p, traced.p}, nil
}
