package main

import (
	"sync"
	"time"
)

// phase counts the operations of one part of a run.
type phase struct {
	Name   string `json:"name"`
	Sent   int    `json:"sent"`
	OK     int    `json:"ok"`
	Failed int    `json:"failed"`
	// Wrong counts the failed operations whose answer disagreed with the
	// reference (the rest failed outright).
	Wrong int `json:"wrong"`
}

// tally collects the outcomes of one phase from concurrent callers:
// latencies of successful operations by kind, correct samples, failures.
type tally struct {
	mu      sync.Mutex
	p       phase
	lat     map[string][]float64 // ms, successful operations only
	samples int                  // samples answered correctly
	errs    []string             // the first few failures, for the report
}

func newTally(name string) *tally {
	return &tally{p: phase{Name: name}, lat: map[string][]float64{}}
}

// maxErrs bounds the failures a report quotes.
const maxErrs = 5

// done records one operation of kind that took d. A non-nil err fails it;
// wrong marks the failure as a wrong answer. samples counts toward the
// correctly answered samples of a successful predict.
func (t *tally) done(kind string, d time.Duration, samples int, err error, wrong bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.Sent++
	if err != nil {
		t.p.Failed++
		if wrong {
			t.p.Wrong++
		}
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, kind+": "+err.Error())
		}
		return
	}
	t.p.OK++
	t.samples += samples
	t.lat[kind] = append(t.lat[kind], ms(d))
}

// parallel runs fn(i) for every i in [0, n) on callers goroutines that take
// indexes in order, and returns once all calls have returned.
func parallel(n, callers int, fn func(caller, i int)) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(c, i)
			}
		}()
	}
	wg.Wait()
}
