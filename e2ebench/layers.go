package main

import (
	"repro/internal/serve"
)

// maxBatch is the servers' MaxBatch (the serve default).
const maxBatch = 16

// layerInputs is what a traced run measured: spans from the traced window,
// counter deltas over it, and the module replay after it.
type layerInputs struct {
	spanMS    map[string]float64 // summed span durations by name
	spanN     map[string]int     // span counts by name
	deltas    counters           // Stats deltas summed over servers
	byPrec    map[string]counters
	router    counters // router /metrics deltas (nil without a router)
	after     []serve.Stats
	reqBytes  float64 // client-counted bytes over requests
	respBytes float64
	requests  float64
	genLagP99 float64 // open loop only
	// tracedP50 and untracedP50 are the workload's headline latency with
	// and without tracing.
	tracedP50, untracedP50 float64
	flops                  []float64
	replay                 metrics
}

// spanMean is the mean duration (ms) of the spans called name.
func (in layerInputs) spanMean(name string) float64 {
	return ratio(in.spanMS[name], float64(in.spanN[name]))
}

// selfMS is parent's self time per parent span: its summed duration minus
// the summed duration of its children, over the parent's span count.
func (in layerInputs) selfMS(parent, child string) float64 {
	if in.spanN[parent] == 0 {
		return 0
	}
	return (in.spanMS[parent] - in.spanMS[child]) / float64(in.spanN[parent])
}

// layerMetrics derives every per-layer metric. A layer a workload does not
// reach reads 0.
func layerMetrics(in layerInputs) metrics {
	s := in.deltas
	m := metrics{}
	count := func(name string, v float64) { m[name] = metric{Value: v, Unit: "count"} }
	msm := func(name string, v float64) { m[name] = metric{Value: v, Unit: "ms"} }

	queueWait := ratio(s.f("queue_wait_ns"), s.f("queue_wait_count")) / 1e6
	engineMS := ratio(s.f("predict_ns"), s.f("predict_batches")) / 1e6

	msm("cluster.proxy_self_ms", in.selfMS("router/predict", "shard/predict"))
	count("cluster.retries", in.router.f("retries"))
	count("cluster.proxy_errors", in.router.f("proxy_errors"))
	apiSelf := 0.0
	if in.spanN["shard/predict"] > 0 {
		apiSelf = in.spanMean("shard/predict") - queueWait - engineMS
	}
	msm("api.predict_self_ms", apiSelf)
	m["api.request_bytes"] = metric{Value: ratio(in.reqBytes, in.requests), Unit: "bytes",
		Base: map[string]float64{"bytes": in.reqBytes, "requests": in.requests}}
	m["api.response_bytes"] = metric{Value: ratio(in.respBytes, in.requests), Unit: "bytes",
		Base: map[string]float64{"bytes": in.respBytes, "requests": in.requests}}
	msm("bench.client_uncovered_ms", in.selfMS("client/predict", "router/predict"))

	m["serve.queue_wait_ms"] = metric{Value: queueWait, Unit: "ms", N: int(s["queue_wait_count"])}
	flushes := s.f("flush_size") + s.f("flush_linger") + s.f("flush_forced") + s.f("flush_deadline")
	m["serve.flush_linger_share"] = ratioMetric(s.f("flush_linger"), flushes, "flush_linger", "flushes")
	m["serve.batch_fill"] = ratioMetric(s.f("samples_predicted"), s.f("predict_batches")*maxBatch, "samples", "batches_x_max_batch")
	count("serve.shed", s.f("shed"))
	count("serve.rejected", s.f("rejected"))
	m["serve.hot_hit_ratio"] = ratioMetric(s.f("cache_hits"), s.f("requests"), "cache_hits", "requests")
	m["serve.miss_no_prune_ratio"] = ratioMetric(s.f("promotions")+s.f("restore_hits"), s.f("cache_misses"),
		"promotions_plus_restore_hits", "cache_misses")
	for _, name := range []string{"personalizations", "promotions", "restore_hits", "demotions",
		"warm_evictions", "dedup_joins", "promote_errors", "restore_errors", "snapshot_errors"} {
		count("serve."+name, s.f(name))
	}
	personalizeSelf := 0.0
	if in.spanN["shard/personalize"] > 0 {
		personalizeSelf = in.spanMean("shard/personalize") - in.replay["pruner.prune_ms"].Value - in.replay["inference.compile_ms"].Value
	}
	msm("serve.personalize_self_ms", personalizeSelf)

	for _, prec := range []string{"float32", "int8"} {
		c := in.byPrec[prec]
		m["inference.engine_batch_ms."+prec] = metric{Value: ratio(c.f("predict_ns"), c.f("predict_batches")) / 1e6,
			Unit: "ms", N: int(c["predict_batches"])}
	}
	var plans, refs float64
	for _, st := range in.after {
		plans += float64(st.SharedPlans)
		refs += float64(st.SharedPlanRefs)
	}
	m["inference.shared_plan_ratio"] = ratioMetric(refs, plans, "shared_plan_refs", "shared_plans")
	m["pruner.flops_ratio"] = metric{Value: mean(in.flops), Unit: "ratio", N: len(in.flops)}
	for name, v := range in.replay {
		m[name] = v
	}
	msm("bench.gen_lag_p99_ms", in.genLagP99)
	m["bench.trace_overhead"] = ratioMetric(in.tracedP50, in.untracedP50, "traced_p50_ms", "untraced_p50_ms")
	return m
}
