package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"
)

const (
	// churnFirstTouchesPerSecond sizes tenant-churn from --seconds: the run
	// makes this many first touches per second asked for, whatever they
	// take, so that the set of tenants it onboards is fixed. At 16 classes
	// this allows --seconds up to 19, before the unused two-class sets run
	// out.
	churnFirstTouchesPerSecond = 10
	// churnReturnsPer returning-tenant predicts follow each first touch.
	churnReturnsPer = 11
	// churnBudget is each shard's MemoryBudgetBytes: about two hot engines
	// (≈1.2 MB each) in the default 0.75 hot share, and a few warm deltas
	// in the rest.
	churnBudget = 3_500_000
)

// churnOp is one closed-loop operation of tenant-churn.
type churnOp struct {
	// first marks a first touch: /personalize of a never-seen class set,
	// then a /predict whose answer becomes the tenant's reference.
	// Otherwise the op is a returning tenant's /predict.
	first  bool
	tenant int
}

// churnOps returns each caller's operation list. Tenants [0, prewarm) are
// the prewarmed ones and the first touches take tenants prewarm, prewarm+1,
// … dealt round-robin over the callers. After each first touch a caller
// makes returnsPer returns, each to a Zipf-chosen tenant already onboarded:
// rank 0 is the caller's newest tenant, then its older ones, then the
// prewarmed tenants.
func churnOps(seed int64, callers, prewarm, firsts, returnsPer int) [][]churnOp {
	z := newZipf(zipfS, prewarm+firsts)
	out := make([][]churnOp, callers)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*7919 + 3 + int64(c)*104729))
		var own []int
		for j := c; j < firsts; j += callers {
			out[c] = append(out[c], churnOp{first: true, tenant: prewarm + j})
			own = append(own, prewarm+j)
			for r := 0; r < returnsPer; r++ {
				k := z.draw(rng, len(own)+prewarm)
				t := k - len(own)
				if k < len(own) {
					t = own[len(own)-1-k]
				}
				out[c] = append(out[c], churnOp{tenant: t})
			}
		}
	}
	return out
}

// splitOps cuts every caller's list before its middle first touch.
func splitOps(lists [][]churnOp) (head, tail [][]churnOp) {
	for _, ops := range lists {
		firsts := 0
		for _, op := range ops {
			if op.first {
				firsts++
			}
		}
		cut, seen := len(ops), 0
		for i, op := range ops {
			if op.first {
				if seen == firsts/2 {
					cut = i
					break
				}
				seen++
			}
		}
		head, tail = append(head, ops[:cut]), append(tail, ops[cut:])
	}
	return head, tail
}

// errNoReference is a return to a tenant whose first touch failed.
var errNoReference = errors.New("no reference: the tenant's first touch failed")

// churnWindow runs one list per caller, back to back.
func churnWindow(c *config, f *fleet, ts []*tenant, lists [][]churnOp, tl *tally) (time.Duration, int64, int64) {
	var reqBytes, respBytes atomic.Int64
	predict := func(kind string, t *tenant) {
		start := time.Now()
		preds, rq, rs, err := predictHTTP(f, c.tr, t, 0)
		d := time.Since(start)
		reqBytes.Add(int64(rq))
		respBytes.Add(int64(rs))
		wrong := false
		switch {
		case err != nil:
		case kind == "predict":
			t.want = [][]int{preds}
		case t.want == nil:
			err = errNoReference
		default:
			err = t.check(0, preds)
			wrong = err != nil
		}
		tl.done(kind, d, len(preds), err, wrong)
	}
	start := time.Now()
	parallel(len(lists), len(lists), func(_, caller int) {
		for _, op := range lists[caller] {
			t := ts[op.tenant]
			if !op.first {
				predict("return", t)
				continue
			}
			if personalizeHTTP(f, c.tr, t, tl) == nil {
				predict("predict", t)
			}
		}
	})
	return time.Since(start), reqBytes.Load(), respBytes.Load()
}

// settle touches every tenant once through the library, in key order, so
// the tiers end in a state that depends only on the tenant set. It also
// checks every reference against the solo engine path: solo answers a
// tenant's input on its resident engine, and a newcomer's reference is its
// served answer at first touch, so a wrong answer there shows here. Each
// check is an operation of tl.
func settle(ts []*tenant, solo func(*tenant) ([]int, error), tl *tally) error {
	order := append([]*tenant(nil), ts...)
	sort.Slice(order, func(i, j int) bool { return order[i].key < order[j].key })
	for _, t := range order {
		start := time.Now()
		got, err := solo(t)
		if err != nil {
			return fmt.Errorf("settling {%s}: %w", t.key, err)
		}
		if t.want == nil {
			continue // its first touch failed and was counted then
		}
		err = t.check(0, got)
		tl.done("solo", time.Since(start), len(got), err, err != nil)
	}
	return nil
}

// soloOnOwner answers a tenant's input through the solo engine path of
// the personalization its owner holds.
func soloOnOwner(f *fleet) func(*tenant) ([]int, error) {
	return func(t *tenant) ([]int, error) {
		eng, err := residentEngine(f, t)
		if err != nil {
			return nil, err
		}
		return eng.Predict(t.inputs[0]), nil
	}
}

// tenantChurn: onboarding and returning tenants. The hot-wire cluster with
// a byte-budgeted tier cache and a shared snapshot directory; closed-loop
// callers mix first touches of new class sets with returning tenants.
func tenantChurn(c *config) (*report, []phase, error) {
	firsts := churnFirstTouchesPerSecond * c.seconds
	c.rec.Params["shards"] = wireShards
	c.rec.Params["prewarmed_tenants"] = wireTenants
	c.rec.Params["first_touches"] = firsts
	c.rec.Params["returns_per_first_touch"] = churnReturnsPer
	c.rec.Params["memory_budget_bytes"] = churnBudget
	c.rec.Params["zipf_s"] = zipfS
	c.rec.Params["loop"] = "closed"
	setup := newTally("setup")
	var ts []*tenant
	f, setupS, err := repeatSetup(c, func() (*fleet, error) {
		var f *fleet
		var err error
		f, ts, err = clusterSetup(c, churnBudget, true, setup)
		return f, err
	})
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	exclude := map[string]bool{}
	for _, t := range ts {
		exclude[t.key] = true
	}
	newcomers, err := makeTenants(1, c.seed+1, firsts, []int{2, 3}, exclude)
	if err != nil {
		return nil, nil, err
	}
	ts = append(ts, newcomers...)
	for _, t := range ts {
		t.makeInputs(f.w, c.seed, 2, 0)
		if err := t.encodeBodies(); err != nil {
			return nil, nil, err
		}
	}
	// Prewarmed tenants' references come from their engines; newcomers'
	// from their first predict, checked against their engines by settle.
	for _, t := range ts[:wireTenants] {
		if err := referenceFromOwner(f, t); err != nil {
			return nil, nil, err
		}
	}
	lists := churnOps(c.seed, c.callers, wireTenants, firsts, churnReturnsPer)
	rep := &report{Record: c.rec}

	if !c.trace {
		win := newTally("window")
		elapsed, _, _ := churnWindow(c, f, ts, lists, win)
		solo := newTally("solo-check")
		if err := settle(ts, soloOnOwner(f), solo); err != nil {
			return nil, nil, err
		}
		rep.EndToEnd, rep.Ungated = endToEnd(e2eInputs{
			setupS: setupS, predict: append(win.lat["predict"], win.lat["return"]...),
			personalize: win.lat["personalize"], ret: win.lat["return"],
			samples: win.samples, windowS: elapsed.Seconds(),
			accs: accuracies(ts), stats: f.stats(),
		})
		rep.Errors = append(requireBeyond(rep.EndToEnd, "predict_p50_ms", "return_p50_ms"),
			requireBeyond(rep.Ungated, "predict_p99_ms", "personalize_p50_ms", "personalize_p90_ms", "return_p90_ms")...)
		rep.finish(setup, win, solo)
		return rep, []phase{win.p, solo.p}, nil
	}

	head, tail := splitOps(lists)
	plain, traced := newTally("window-untraced"), newTally("window-traced")
	var reqBytes, respBytes int64
	before, after, err := tracedWindow(c, f,
		func() { churnWindow(c, f, ts, head, plain) },
		func() { _, reqBytes, respBytes = churnWindow(c, f, ts, tail, traced) })
	if err != nil {
		return nil, nil, err
	}
	solo := newTally("solo-check")
	if err := settle(ts, soloOnOwner(f), solo); err != nil {
		return nil, nil, err
	}
	float32Eng, err := residentEngine(f, ts[0])
	if err != nil {
		return nil, nil, err
	}
	replay, err := replayModules(f.w, classSets(newcomers[len(newcomers)-2:]), float32Eng, nil)
	if err != nil {
		return nil, nil, err
	}
	in := layerInputsOf(c, before, after, replay)
	in.reqBytes, in.respBytes = float64(reqBytes), float64(respBytes)
	in.requests = float64(len(traced.lat["predict"]) + len(traced.lat["return"]))
	in.tracedP50 = median(traced.lat["personalize"])
	in.untracedP50 = median(plain.lat["personalize"])
	in.flops = flopsRatios(ts)
	rep.PerLayer = layerMetrics(in)
	rep.finish(setup, plain, traced, solo)
	return rep, []phase{plain.p, traced.p, solo.p}, nil
}
