package main

import (
	"fmt"

	"repro/internal/serve"
)

// e2eInputs is what an untraced run measured.
type e2eInputs struct {
	setupS []float64
	// predict, personalize and ret are latencies (ms) of successful
	// operations: every predict, first-touch personalizations, and
	// returning tenants' predicts.
	predict, personalize, ret []float64
	samples                   int     // samples answered correctly in the window
	windowS                   float64 // window length
	accs                      []float64
	stats                     []serve.Stats // after the window
}

// endToEnd derives the end-to-end metrics: the gated ones, and those
// reported but not gated — on a shared 2-vCPU host the run-to-run spread
// of the tail percentiles and of personalization latency follows the
// host's CPU steal rather than the code.
func endToEnd(in e2eInputs) (gated, ungated metrics) {
	pr, pe, rt := sorted(in.predict), sorted(in.personalize), sorted(in.ret)
	ungated = metrics{
		"predict_p99_ms":     pctMetric(percentile(pr, 0.99), "ms"),
		"personalize_p50_ms": pctMetric(percentile(pe, 0.5), "ms"),
		"personalize_p90_ms": pctMetric(percentile(pe, 0.9), "ms"),
		"return_p90_ms":      pctMetric(percentile(rt, 0.9), "ms"),
	}
	gated = metrics{
		"setup_s":        {Value: median(in.setupS), Unit: "s", N: len(in.setupS)},
		"predict_p50_ms": pctMetric(percentile(pr, 0.5), "ms"),
		"return_p50_ms":  pctMetric(percentile(rt, 0.5), "ms"),
		"samples_per_s": {Value: ratio(float64(in.samples), in.windowS), Unit: "1/s",
			Base: map[string]float64{"samples": float64(in.samples), "seconds": in.windowS}},
		"tenant_acc_mean": {Value: mean(in.accs), Unit: "ratio", N: len(in.accs)},
	}
	// Agreement of int8 engines with their float references; float engines
	// are their own reference, so a float-only fleet reads 1.
	var agreeN, agreeOK, bytes, tenants float64
	for _, st := range in.stats {
		agreeN += float64(st.AgreementSamples)
		agreeOK += float64(st.AgreementMatches)
		bytes += float64(st.HotBytes + st.WarmBytes)
		tenants += float64(st.CachedEngines + st.WarmEntries)
	}
	agree := ratioMetric(agreeOK, agreeN, "matches", "samples")
	if agreeN == 0 {
		agree.Value = 1
	}
	gated["int8_agreement"] = agree
	gated["bytes_per_tenant"] = metric{Value: ratio(bytes, tenants), Unit: "bytes",
		Base: map[string]float64{"hot_plus_warm_bytes": bytes, "resident_tenants": tenants}}
	return gated, ungated
}

// requireBeyond lists the named percentiles of m that leave fewer than
// minBeyond samples above them.
func requireBeyond(m metrics, names ...string) []string {
	var errs []string
	for _, name := range names {
		if b := m[name].Beyond; b == nil || *b < minBeyond {
			errs = append(errs, fmt.Sprintf("%s: fewer than %d samples beyond it (n=%d)", name, minBeyond, m[name].N))
		}
	}
	return errs
}
