package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the client's request id to the router, so the
// client and router spans of one request share it. The router does not
// forward it, so shard spans carry no id.
const requestIDHeader = "X-Bench-Request"

// span is one timed call at a layer boundary.
type span struct {
	// ID is shared by the spans of one request (0: none could be attached).
	ID    uint64 `json:"id,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the tracer started
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory while it is on; write dumps them at the end
// of the run. A nil tracer records nothing and wraps nothing.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// recording reports whether spans are being kept.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// newID returns a fresh request id.
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// record keeps one span.
func (t *tracer) record(name string, id uint64, start, end time.Time) {
	s := span{ID: id, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap times every request h serves as a span named layer+path (e.g.
// "router/predict") while the tracer records.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.recording() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(layer+r.URL.Path, id, start, time.Now())
	})
}

// spanTotals sums span durations (ms) and counts spans per name.
func (t *tracer) spanTotals() (sumMS map[string]float64, count map[string]int) {
	sumMS, count = map[string]float64{}, map[string]int{}
	if t == nil {
		return sumMS, count
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		sumMS[s.Name] += float64(s.End-s.Start) / 1e6
		count[s.Name]++
	}
	return sumMS, count
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
