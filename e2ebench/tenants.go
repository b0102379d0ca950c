package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/inference"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// tenant is one class set a workload serves, with the inputs it sends and
// the answers they must get.
type tenant struct {
	classes []int
	key     string
	qos     serve.QoSClass
	// inputs are the predict batches the tenant sends; bodies are the same
	// batches encoded as /predict requests (HTTP workloads only).
	inputs []*tensor.Tensor
	bodies [][]byte
	// want holds the reference answer to each input.
	want [][]int
	// acc and flops are the tenant's selected-class accuracy and FLOPs
	// ratio as reported at personalization.
	acc, flops float64
}

// populationSeed draws the class sets of every workload's tenants, the
// same at every --seed, in a fixed popularity order (Zipf rank k is tenant
// k): the seed deals QoS classes and draws the traffic and inputs.
// Selected-class accuracy ranges from 0.5 to 1 over the 120 two-class
// sets, so a population redrawn per seed moves tenant_acc_mean by about 5%
// from seed to seed and would hide a regression of that size. Pruned
// engines differ in cost and Zipf rank 0 takes about a third of the calls,
// so a fixed order also keeps which tenant is hottest out of the latency
// spread between seeds.
const populationSeed = 1

// makeTenants returns n tenants of the given class-set sizes drawn from
// population stream, skipping keys in exclude. QoS classes are dealt from
// seed as crisp-load deals them: a quarter gold, a quarter batch, the rest
// standard, over a shuffle so population order and class are independent.
func makeTenants(stream, seed int64, n int, sizes []int, exclude map[string]bool) ([]*tenant, error) {
	sets, err := distinctClassSets(rand.New(rand.NewSource(populationSeed+stream)), n, sizes, exclude)
	if err != nil {
		return nil, err
	}
	ts := make([]*tenant, n)
	for i, set := range sets {
		ts[i] = &tenant{classes: set, key: classKey(set)}
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	gold, batch := n/4, n/4
	for i, p := range perm {
		switch {
		case i < gold:
			ts[p].qos = serve.QoSGold
		case i < gold+batch:
			ts[p].qos = serve.QoSBatch
		}
	}
	return ts, nil
}

// makeInputs fills the tenant's predict batches: perClass samples of each
// of its classes from a stream named by the seed, grouped into batches of
// group samples (0: one batch of all).
func (t *tenant) makeInputs(w *world, seed int64, perClass, group int) {
	split := w.ds.MakeSplit(fmt.Sprintf("e2ebench-input/%d/%s", seed, t.key), t.classes, perClass)
	n := split.Len()
	if group <= 0 {
		group = n
	}
	// Deal samples round-robin so every batch mixes the tenant's classes.
	batches := n / group
	t.inputs = make([]*tensor.Tensor, batches)
	for b := range t.inputs {
		idx := make([]int, group)
		for i := range idx {
			idx[i] = b + i*batches
		}
		t.inputs[b] = split.Subset(idx).X
	}
}

// encodeBodies encodes every input as a /predict request body.
func (t *tenant) encodeBodies() error {
	t.bodies = make([][]byte, len(t.inputs))
	for i, x := range t.inputs {
		vol := x.Len() / x.Shape[0]
		rows := make([][]float64, x.Shape[0])
		for r := range rows {
			rows[r] = x.Data[r*vol : (r+1)*vol]
		}
		b, err := json.Marshal(map[string]any{"classes": t.classes, "inputs": rows})
		if err != nil {
			return err
		}
		t.bodies[i] = b
	}
	return nil
}

// reference computes the answer to every input through the solo engine
// path of the tenant's personalization.
func (t *tenant) reference(eng *inference.Engine) {
	t.want = make([][]int, len(t.inputs))
	for i, x := range t.inputs {
		t.want[i] = eng.Predict(x)
	}
}

// check compares an answer against input i's reference.
func (t *tenant) check(i int, got []int) error {
	if !slices.Equal(got, t.want[i]) {
		return fmt.Errorf("wrong answer for {%s} input %d: got %v, want %v", t.key, i, got, t.want[i])
	}
	return nil
}

// personalizeReply is the part of a /personalize answer the benchmark reads.
type personalizeReply struct {
	Accuracy   float64 `json:"accuracy"`
	FLOPsRatio float64 `json:"flops_ratio"`
	Cached     bool    `json:"cached"`
}

// personalizeHTTP onboards t with its QoS class through the router and
// records the call as a "personalize" operation.
func personalizeHTTP(f *fleet, tr *tracer, t *tenant, tl *tally) error {
	body, err := json.Marshal(map[string]any{"classes": t.classes, "qos": t.qos.String()})
	if err != nil {
		return err
	}
	start := time.Now()
	out, err := f.post(tr, "/personalize", body)
	d := time.Since(start)
	var rep personalizeReply
	if err == nil {
		err = json.Unmarshal(out, &rep)
	}
	if err == nil && rep.Cached {
		err = fmt.Errorf("first touch of {%s} was served from cache", t.key)
	}
	tl.done("personalize", d, 0, err, false)
	if err != nil {
		return err
	}
	t.acc, t.flops = rep.Accuracy, rep.FLOPsRatio
	return nil
}

// predictReply is the part of a /predict answer the benchmark reads.
type predictReply struct {
	Predictions []int `json:"predictions"`
}

// predictHTTP sends input i of t through the router and returns the
// answer and the request and response sizes.
func predictHTTP(f *fleet, tr *tracer, t *tenant, i int) (preds []int, reqBytes, respBytes int, err error) {
	out, err := f.post(tr, "/predict", t.bodies[i])
	if err != nil {
		return nil, len(t.bodies[i]), 0, err
	}
	var rep predictReply
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, len(t.bodies[i]), len(out), fmt.Errorf("decoding predict reply: %w", err)
	}
	return rep.Predictions, len(t.bodies[i]), len(out), nil
}

// referenceFromOwner computes t's references on the engine of the server
// that holds it.
func referenceFromOwner(f *fleet, t *tenant) error {
	srv, err := f.owner(t.key)
	if err != nil {
		return err
	}
	p, _, err := srv.Personalize(t.classes)
	if err != nil {
		return fmt.Errorf("reference for {%s}: %w", t.key, err)
	}
	t.reference(p.Engine())
	return nil
}
