package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/serve"
)

// counters is a set of cumulative counters by name. Per-layer metrics read
// the difference of two snapshots taken around the measured window, so
// set-up and prewarm traffic stay out of them.
type counters map[string]uint64

// serveCounters extracts the cumulative Stats counters the per-layer
// metrics read.
func serveCounters(st serve.Stats) counters {
	c := counters{
		"requests":          st.Requests,
		"cache_hits":        st.CacheHits,
		"cache_misses":      st.CacheMisses,
		"dedup_joins":       st.DedupJoins,
		"personalizations":  st.Personalizations,
		"promotions":        st.Promotions,
		"restore_hits":      st.RestoreHits,
		"demotions":         st.Demotions,
		"warm_evictions":    st.WarmEvictions,
		"promote_errors":    st.PromoteErrors,
		"restore_errors":    st.RestoreErrors,
		"snapshot_errors":   st.SnapshotErrors,
		"predict_batches":   st.PredictBatches,
		"samples_predicted": st.SamplesPredicted,
		"predict_ns":        st.PredictNS,
		"rejected":          st.Rejected,
		"flush_size":        st.FlushSize,
		"flush_linger":      st.FlushLinger,
		"flush_forced":      st.FlushForced,
		"flush_deadline":    st.FlushDeadline,
	}
	for _, n := range st.ShedByClass {
		c["shed"] += n
	}
	for _, qw := range st.QueueWait {
		c["queue_wait_ns"] += qw.SumNS
		c["queue_wait_count"] += qw.Count
	}
	return c
}

// sub returns c − before, name by name.
func (c counters) sub(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// add accumulates o into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// f reads a counter as a float.
func (c counters) f(name string) float64 { return float64(c[name]) }

// routerCounters scrapes the router's Prometheus text and returns its
// unlabelled counters (crisp_router_<name>_total → <name>).
func routerCounters(client *http.Client, url string) (counters, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping router metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping router metrics: status %d", resp.StatusCode)
	}
	return parseRouterMetrics(resp.Body)
}

func parseRouterMetrics(r io.Reader) (counters, error) {
	c := counters{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") || !strings.HasSuffix(name, "_total") {
			continue
		}
		name, ok = strings.CutPrefix(name, "crisp_router_")
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("router metric %s: %w", name, err)
		}
		c[strings.TrimSuffix(name, "_total")] = v
	}
	return c, sc.Err()
}

// snapshot is every counter of a fleet at one instant.
type snapshot struct {
	stats  []serve.Stats
	router counters // nil without a router
}

// snapshot reads every server's Stats and, in a cluster, the router's
// /metrics.
func (f *fleet) snapshot() (snapshot, error) {
	s := snapshot{stats: f.stats()}
	if f.router != nil {
		rc, err := routerCounters(f.client, f.routerURL)
		if err != nil {
			return s, err
		}
		s.router = rc
	}
	return s, nil
}

// windowDeltas returns the counter deltas from before to after: summed over
// servers, summed per engine precision, and the router's.
func windowDeltas(before, after snapshot) (all counters, byPrec map[string]counters, router counters) {
	all, byPrec = counters{}, map[string]counters{}
	for i, st := range after.stats {
		d := serveCounters(st).sub(serveCounters(before.stats[i]))
		all.add(d)
		if byPrec[st.Precision] == nil {
			byPrec[st.Precision] = counters{}
		}
		byPrec[st.Precision].add(d)
	}
	if after.router != nil {
		router = after.router.sub(before.router)
	}
	return all, byPrec, router
}
