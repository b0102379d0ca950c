package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n       int
		q       float64
		value   float64
		beyond  int
		enough  bool
		comment string
	}{
		{100, 0.5, 50, 50, true, "median of 1..100"},
		{100, 0.9, 90, 10, true, "p90 of 100 leaves exactly ten beyond"},
		{99, 0.9, 90, 9, false, "p90 of 99 leaves nine"},
		{1000, 0.99, 990, 10, true, "p99 needs 1000 samples"},
		{999, 0.99, 990, 9, false, "p99 of 999 leaves nine"},
		{1, 0.99, 1, 0, false, "a single sample is its own p99"},
	} {
		p := percentile(seq(tc.n), tc.q)
		enough := len(requireBeyond(metrics{"p": pctMetric(p, "ms")}, "p")) == 0
		if p.Value != tc.value || p.Beyond != tc.beyond || p.N != tc.n || enough != tc.enough {
			t.Errorf("%s: got %+v enough=%v, want value %v beyond %d enough %v", tc.comment, p, enough, tc.value, tc.beyond, tc.enough)
		}
	}
	if p := percentile(nil, 0.5); p.N != 0 || p.Beyond != 0 {
		t.Errorf("empty sample set: got %+v", p)
	}
	for q, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000} {
		if n := minSamples(q); n != want {
			t.Errorf("minSamples(%v) = %d, want %d", q, n, want)
		}
	}
	m := metrics{"a": pctMetric(percentile(seq(100), 0.9), "ms"), "b": pctMetric(percentile(seq(99), 0.9), "ms")}
	if errs := requireBeyond(m, "a", "b", "missing"); len(errs) != 2 || !strings.HasPrefix(errs[0], "b:") {
		t.Errorf("requireBeyond = %v, want b and missing flagged", errs)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	due := openLoopDue(200, 4)
	want := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	if !reflect.DeepEqual(due, want) {
		t.Fatalf("openLoopDue(200, 4) = %v, want %v", due, want)
	}
}

// TestOpenLoopTimesFromDue drives a server slower than the schedule with
// one caller: each request waits for the previous one, and both its
// latency and the generator's lag must grow by the backlog.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(`{"predictions":[1]}`))
	}))
	defer srv.Close()
	f := &fleet{client: newClient(), routerURL: srv.URL}
	defer f.client.CloseIdleConnections()
	tn := &tenant{key: "0,1", bodies: [][]byte{[]byte(`{}`)}, want: [][]int{{1}}}
	c := &config{rate: 100, callers: 1} // due every 10ms, served every 30ms
	ops := make([]wireOp, 5)
	tl := newTally("window")
	run := openLoop(c, f, []*tenant{tn}, ops, tl)
	if tl.p.OK != 5 || tl.p.Failed != 0 {
		t.Fatalf("phase %+v, want 5 ok", tl.p)
	}
	// Request i is sent when i-1 returns (≈30i ms) but was due at 10i ms.
	lat := tl.lat["predict"]
	for i := 1; i < 5; i++ {
		backlog := ms(time.Duration(i) * (service - 10*time.Millisecond))
		if lat[i] < ms(service)+backlog {
			t.Errorf("latency[%d] = %.1fms, want >= %.1fms (service + backlog)", i, lat[i], ms(service)+backlog)
		}
		if run.lagMS[i] < backlog {
			t.Errorf("lag[%d] = %.1fms, want >= %.1fms", i, run.lagMS[i], backlog)
		}
	}
	if run.reqBytes != 10 || run.respBytes != int64(5*len(`{"predictions":[1]}`)) {
		t.Errorf("bytes = %d/%d", run.reqBytes, run.respBytes)
	}
}

func TestOpenLoopCountsWrongAnswers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"predictions":[2]}`))
	}))
	defer srv.Close()
	f := &fleet{client: newClient(), routerURL: srv.URL}
	defer f.client.CloseIdleConnections()
	tn := &tenant{key: "0,1", bodies: [][]byte{[]byte(`{}`)}, want: [][]int{{1}}}
	tl := newTally("window")
	openLoop(&config{rate: 1000, callers: 2}, f, []*tenant{tn}, make([]wireOp, 3), tl)
	if tl.p.Failed != 3 || tl.p.Wrong != 3 || tl.samples != 0 {
		t.Fatalf("phase %+v samples %d, want 3 wrong", tl.p, tl.samples)
	}
}

func TestCounterDeltas(t *testing.T) {
	before := serve.Stats{
		Requests: 10, CacheHits: 8, PredictBatches: 4, PredictNS: 4000, Precision: "float32",
		ShedByClass: map[string]uint64{"gold": 1, "batch": 2},
		QueueWait:   map[string]serve.QueueWaitStats{"gold": {SumNS: 100, Count: 1}},
	}
	after := serve.Stats{
		Requests: 25, CacheHits: 20, PredictBatches: 9, PredictNS: 9500, Precision: "float32",
		ShedByClass: map[string]uint64{"gold": 1, "batch": 5},
		QueueWait:   map[string]serve.QueueWaitStats{"gold": {SumNS: 400, Count: 3}, "standard": {SumNS: 50, Count: 1}},
	}
	d := serveCounters(after).sub(serveCounters(before))
	for name, want := range map[string]uint64{
		"requests": 15, "cache_hits": 12, "predict_batches": 5, "predict_ns": 5500,
		"shed": 3, "queue_wait_ns": 350, "queue_wait_count": 3, "personalizations": 0,
	} {
		if d[name] != want {
			t.Errorf("delta %s = %d, want %d", name, d[name], want)
		}
	}

	q0, q1 := serve.Stats{Precision: "int8", PredictBatches: 1}, serve.Stats{Precision: "int8", PredictBatches: 4}
	all, byPrec, router := windowDeltas(
		snapshot{stats: []serve.Stats{before, q0}, router: counters{"retries": 2}},
		snapshot{stats: []serve.Stats{after, q1}, router: counters{"retries": 5, "proxy_errors": 1}})
	if all["predict_batches"] != 8 || byPrec["float32"]["predict_batches"] != 5 || byPrec["int8"]["predict_batches"] != 3 {
		t.Errorf("windowDeltas batches: all %d float32 %d int8 %d", all["predict_batches"],
			byPrec["float32"]["predict_batches"], byPrec["int8"]["predict_batches"])
	}
	if router["retries"] != 3 || router["proxy_errors"] != 1 {
		t.Errorf("router deltas %v", router)
	}
}

func TestParseRouterMetrics(t *testing.T) {
	text := `# HELP crisp_router_retries_total Predict attempts repeated.
# TYPE crisp_router_retries_total counter
crisp_router_retries_total 7
crisp_router_proxied_total{path="predict"} 99
crisp_router_proxy_errors_total 2
crisp_router_shards 3
`
	c, err := parseRouterMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := counters{"retries": 7, "proxy_errors": 2}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("parsed %v, want %v", c, want)
	}
}

func TestSameSeedSameOperations(t *testing.T) {
	if a, b := wireOps(3, 500, 24, 4), wireOps(3, 500, 24, 4); !reflect.DeepEqual(a, b) {
		t.Error("wireOps differs for one seed")
	}
	if a, b := wireOps(3, 500, 24, 4), wireOps(4, 500, 24, 4); reflect.DeepEqual(a, b) {
		t.Error("wireOps equal for two seeds")
	}
	if a, b := churnOps(3, 2, 24, 40, 9), churnOps(3, 2, 24, 40, 9); !reflect.DeepEqual(a, b) {
		t.Error("churnOps differs for one seed")
	}
	s1, s2 := bulkStream(3, 1, 16), bulkStream(3, 1, 16)
	for i := 0; i < 200; i++ {
		if a, b := s1(), s2(); a != b {
			t.Fatalf("bulkStream call %d: %v != %v", i, a, b)
		}
	}
	t1, err1 := makeTenants(0, 3, 24, []int{2, 3}, nil)
	t2, err2 := makeTenants(0, 3, 24, []int{2, 3}, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range t1 {
		if t1[i].key != t2[i].key || t1[i].qos != t2[i].qos {
			t.Fatalf("tenant %d differs: %s/%v vs %s/%v", i, t1[i].key, t1[i].qos, t2[i].key, t2[i].qos)
		}
	}
}

// TestPopulationFixedAcrossSeeds checks that the seed deals QoS classes
// over one tenant population rather than drawing another.
func TestPopulationFixedAcrossSeeds(t *testing.T) {
	a, _ := makeTenants(0, 3, 24, []int{2}, nil)
	b, _ := makeTenants(0, 4, 24, []int{2}, nil)
	sameQoS := true
	for i := range a {
		if a[i].key != b[i].key {
			t.Fatalf("tenant %d: {%s} at one seed, {%s} at another", i, a[i].key, b[i].key)
		}
		sameQoS = sameQoS && a[i].qos == b[i].qos
	}
	if sameQoS {
		t.Error("two seeds dealt the same QoS classes")
	}
}

func TestTenantsDistinctAndDealt(t *testing.T) {
	exclude := map[string]bool{"0,1": true}
	ts, err := makeTenants(5, 5, 100, []int{2, 3}, exclude)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var gold, batch int
	for _, tn := range ts {
		if seen[tn.key] || exclude[tn.key] {
			t.Fatalf("tenant {%s} repeated or excluded", tn.key)
		}
		seen[tn.key] = true
		switch tn.qos {
		case serve.QoSGold:
			gold++
		case serve.QoSBatch:
			batch++
		}
	}
	if gold != 25 || batch != 25 {
		t.Errorf("QoS deal: %d gold, %d batch, want 25 each", gold, batch)
	}
	// 16 classes have 120 two-class sets, one excluded: 119 two-class
	// tenants can be drawn, 120 cannot.
	rng := rand.New(rand.NewSource(1))
	if _, err := distinctClassSets(rng, 119, []int{2}, exclude); err != nil {
		t.Errorf("119 of 119 free sets: %v", err)
	}
	if _, err := distinctClassSets(rng, 240, []int{2, 3}, exclude); err == nil {
		t.Error("120 two-class sets drawn from 119 free ones")
	}
}

// TestSoloCheckCatchesConsistentAnswers serves a tenant-churn window from
// a stub whose every /predict gives the same wrong class: each return then
// agrees with the first-touch answer, and only the solo engine check after
// the window can tell the answers are wrong.
func TestSoloCheckCatchesConsistentAnswers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/personalize" {
			w.Write([]byte(`{"accuracy":0.9,"flops_ratio":0.3}`))
			return
		}
		w.Write([]byte(`{"predictions":[2,2]}`))
	}))
	defer srv.Close()
	f := &fleet{client: newClient(), routerURL: srv.URL}
	defer f.client.CloseIdleConnections()
	const firsts = 6
	ts := make([]*tenant, firsts)
	for i := range ts {
		ts[i] = &tenant{classes: []int{i, i + 1}, key: classKey([]int{i, i + 1}), bodies: [][]byte{[]byte(`{}`)}}
	}
	c := &config{callers: 2}
	win := newTally("window")
	churnWindow(c, f, ts, churnOps(1, c.callers, 0, firsts, 3), win)
	if win.p.Failed != 0 || win.p.Sent != firsts*(2+3) {
		t.Fatalf("window %+v, want %d operations, none failed", win.p, firsts*5)
	}
	for _, tc := range []struct {
		answer []int
		wrong  int
	}{{[]int{2, 2}, 0}, {[]int{1, 2}, firsts}} {
		solo := newTally("solo-check")
		err := settle(ts, func(*tenant) ([]int, error) { return tc.answer, nil }, solo)
		if err != nil || solo.p.Sent != firsts || solo.p.Wrong != tc.wrong {
			t.Errorf("solo answer %v: phase %+v err %v, want %d wrong", tc.answer, solo.p, err, tc.wrong)
		}
	}
}

// TestChurnReturnsOnlyOnboarded checks that a caller only returns to
// tenants that are prewarmed or that it has already first-touched itself,
// so a return can never race the tenant's first touch.
func TestChurnReturnsOnlyOnboarded(t *testing.T) {
	const prewarm, firsts = 24, 101
	lists := churnOps(9, 3, prewarm, firsts, 9)
	total := 0
	for c, ops := range lists {
		own := map[int]bool{}
		for _, op := range ops {
			if op.first {
				if (op.tenant-prewarm)%3 != c || own[op.tenant] {
					t.Fatalf("caller %d first-touches tenant %d", c, op.tenant)
				}
				own[op.tenant] = true
				total++
			} else if op.tenant >= prewarm && !own[op.tenant] {
				t.Fatalf("caller %d returns to tenant %d before onboarding it", c, op.tenant)
			}
		}
	}
	if total != firsts {
		t.Errorf("%d first touches, want %d", total, firsts)
	}
	head, tail := splitOps(lists)
	for c := range lists {
		if len(head[c])+len(tail[c]) != len(lists[c]) || !tail[c][0].first {
			t.Errorf("caller %d: split %d+%d of %d, tail starts %+v", c, len(head[c]), len(tail[c]), len(lists[c]), tail[c][0])
		}
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(zipfS, 50)
	rng := rand.New(rand.NewSource(1))
	hist := make([]int, 10)
	for i := 0; i < 20000; i++ {
		k := z.draw(rng, 10)
		if k < 0 || k >= 10 {
			t.Fatalf("draw out of range: %d", k)
		}
		hist[k]++
	}
	for k := 1; k < 10; k++ {
		if hist[k] >= hist[k-1] {
			t.Fatalf("rank %d drawn %d times, rank %d %d times", k, hist[k], k-1, hist[k-1])
		}
	}
}
