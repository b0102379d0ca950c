package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/inference"
	"repro/internal/serve"
)

const (
	// bulkTenantsPer is the tenant count of each of hot-bulk's two servers.
	bulkTenantsPer = 8
	// bulkBatch is the samples per Server.Predict call: a full MaxBatch.
	bulkBatch = maxBatch
	// bulkInputs is the number of distinct batches per tenant.
	bulkInputs = 2
	// bulkCallers is one: on a 2-vCPU box a call that overlaps another
	// caller's takes about 9.5 ms against 5.5 ms alone, and with two
	// callers the p50 fell between the two modes and moved by 30% from run
	// to run.
	bulkCallers = 1
)

// bulkOp is one closed-loop call: a tenant and which of its batches.
type bulkOp struct{ tenant, input int }

// bulkStream returns caller's endless call sequence: Zipf tenant
// popularity over n tenants, uniform batch choice.
func bulkStream(seed int64, caller, n int) func() bulkOp {
	rng := rand.New(rand.NewSource(seed*7919 + 2 + int64(caller)*104729))
	z := newZipf(zipfS, n)
	return func() bulkOp {
		return bulkOp{tenant: z.draw(rng, n), input: rng.Intn(bulkInputs)}
	}
}

// bulkTenant is a hot-bulk tenant and the server that holds it.
type bulkTenant struct {
	*tenant
	srv *serve.Server
}

// bulkSetup is one set-up of hot-bulk: pretrain, build a float32 and an
// int8 server on the same base, prewarm 8 tenants on each, one at a time
// as clusterSetup does.
func bulkSetup(c *config, setup *tally) (*fleet, []bulkTenant, error) {
	w := newWorld()
	fo, qo := serverOptions(), serverOptions()
	fo.Precision, qo.Precision = inference.Float32, inference.Int8
	f, err := newServers(w, fo, qo)
	if err != nil {
		return nil, nil, err
	}
	ts, err := makeTenants(0, c.seed, 2*bulkTenantsPer, []int{2}, nil)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	bts := make([]bulkTenant, len(ts))
	for i, t := range ts {
		bts[i] = bulkTenant{tenant: t, srv: f.servers[i%2]}
	}
	for _, t := range bts {
		start := time.Now()
		p, cached, err := t.srv.PersonalizeQoS(t.classes, serve.QoSBatch)
		if err == nil && cached {
			err = fmt.Errorf("first touch of {%s} was served from cache", t.key)
		}
		setup.done("personalize", time.Since(start), 0, err, false)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		t.acc, t.flops = p.Accuracy, p.Report.FLOPsRatio
	}
	return f, bts, nil
}

// closedLoop runs c.callers callers, each issuing its own call sequence
// back to back until d has passed and at least minCalls calls were made.
// A traced call is a "serve/predict" span.
func closedLoop(c *config, bts []bulkTenant, d time.Duration, minCalls int, tl *tally) time.Duration {
	start := time.Now()
	var calls atomic.Int64
	parallel(c.callers, c.callers, func(_, caller int) {
		next := bulkStream(c.seed, caller, len(bts))
		for time.Since(start) < d || calls.Load() < int64(minCalls) {
			calls.Add(1)
			op := next()
			t := bts[op.tenant]
			t0 := time.Now()
			preds, err := t.srv.Predict(t.classes, t.inputs[op.input])
			end := time.Now()
			if c.tr.recording() {
				c.tr.record("serve/predict", 0, t0, end)
			}
			wrong := false
			if err == nil {
				err = t.check(op.input, preds)
				wrong = err != nil
			}
			tl.done("predict", end.Sub(t0), len(preds), err, wrong)
		}
	})
	return time.Since(start)
}

// hotBulk: offline batch scoring through the library. A float32 and an
// int8 server share one base; closed-loop 16-sample Server.Predict calls.
func hotBulk(c *config) (*report, []phase, error) {
	c.callers = bulkCallers
	c.rec.Params["callers"] = c.callers
	c.rec.Params["tenants_per_server"] = bulkTenantsPer
	c.rec.Params["batch"] = bulkBatch
	c.rec.Params["zipf_s"] = zipfS
	c.rec.Params["loop"] = "closed"
	setup := newTally("setup")
	var bts []bulkTenant
	f, setupS, err := repeatSetup(c, func() (*fleet, error) {
		var f *fleet
		var err error
		f, bts, err = bulkSetup(c, setup)
		return f, err
	})
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ts := make([]*tenant, len(bts))
	for i, t := range bts {
		ts[i] = t.tenant
		t.makeInputs(f.w, c.seed, bulkInputs*bulkBatch/len(t.classes), bulkBatch)
		p, _, err := t.srv.Personalize(t.classes)
		if err != nil {
			return nil, nil, err
		}
		t.reference(p.Engine())
	}
	window := time.Duration(c.seconds) * time.Second
	rep := &report{Record: c.rec}

	if !c.trace {
		// A slow host makes fewer calls in the window than the p99 needs
		// to leave minBeyond samples above it; the window then runs on
		// until it has them.
		win := newTally("window")
		elapsed := closedLoop(c, bts, window, minSamples(0.99), win)
		rep.EndToEnd, rep.Ungated = endToEnd(e2eInputs{
			setupS: setupS, predict: win.lat["predict"], personalize: setup.lat["personalize"],
			ret: win.lat["predict"], samples: win.samples, windowS: elapsed.Seconds(),
			accs: accuracies(ts), stats: f.stats(),
		})
		rep.Errors = append(requireBeyond(rep.EndToEnd, "predict_p50_ms", "return_p50_ms"),
			requireBeyond(rep.Ungated, "predict_p99_ms", "return_p90_ms")...)
		rep.finish(setup, win)
		return rep, []phase{win.p}, nil
	}

	plain, traced := newTally("window-untraced"), newTally("window-traced")
	before, after, err := tracedWindow(c, f,
		func() { closedLoop(c, bts, window/2, 0, plain) },
		func() { closedLoop(c, bts, window/2, 0, traced) })
	if err != nil {
		return nil, nil, err
	}
	engines := make([]*inference.Engine, 2)
	for i := range engines {
		p, _, err := bts[i].srv.Personalize(bts[i].classes)
		if err != nil {
			return nil, nil, err
		}
		engines[i] = p.Engine()
	}
	replay, err := replayModules(f.w, classSets(ts[:2]), engines[0], engines[1])
	if err != nil {
		return nil, nil, err
	}
	in := layerInputsOf(c, before, after, replay)
	in.tracedP50 = median(traced.lat["predict"])
	in.untracedP50 = median(plain.lat["predict"])
	in.flops = flopsRatios(ts)
	rep.PerLayer = layerMetrics(in)
	rep.finish(setup, plain, traced)
	return rep, []phase{plain.p, traced.p}, nil
}
