package main

import (
	"repro/internal/inference"
)

// tracedWindow runs plain untraced, then traced with spans recording,
// snapshotting the counters around the traced part only.
func tracedWindow(c *config, f *fleet, plain, traced func()) (before, after snapshot, err error) {
	plain()
	if before, err = f.snapshot(); err != nil {
		return before, after, err
	}
	c.tr.on.Store(true)
	traced()
	c.tr.on.Store(false)
	after, err = f.snapshot()
	return before, after, err
}

// layerInputsOf gathers the spans and counter deltas of a traced window.
func layerInputsOf(c *config, before, after snapshot, replay metrics) layerInputs {
	in := layerInputs{after: after.stats, replay: replay}
	in.spanMS, in.spanN = c.tr.spanTotals()
	in.deltas, in.byPrec, in.router = windowDeltas(before, after)
	return in
}

// residentEngine returns the engine serving t on its owner.
func residentEngine(f *fleet, t *tenant) (*inference.Engine, error) {
	srv, err := f.owner(t.key)
	if err != nil {
		return nil, err
	}
	p, _, err := srv.Personalize(t.classes)
	if err != nil {
		return nil, err
	}
	return p.Engine(), nil
}

func accuracies(ts []*tenant) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.acc
	}
	return out
}

func flopsRatios(ts []*tenant) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.flops
	}
	return out
}

func classSets(ts []*tenant) [][]int {
	out := make([][]int, len(ts))
	for i, t := range ts {
		out[i] = t.classes
	}
	return out
}

// finish records the phases of a run and quotes their first failures.
func (r *report) finish(tallies ...*tally) {
	for _, t := range tallies {
		r.Phases = append(r.Phases, t.p)
		for _, e := range t.errs {
			r.Failures = append(r.Failures, t.p.Name+": "+e)
		}
	}
}
