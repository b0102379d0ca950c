package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metric is one reported number. N, Beyond and Base say what it rests on:
// the sample count, the samples ranked above a percentile, and the
// numerator and denominator of a ratio.
type metric struct {
	Value  float64            `json:"value"`
	Unit   string             `json:"unit"`
	N      int                `json:"n,omitempty"`
	Beyond *int               `json:"beyond,omitempty"`
	Base   map[string]float64 `json:"base,omitempty"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// pctMetric reports a percentile with its sample counts.
func pctMetric(p pct, unit string) metric {
	b := p.Beyond
	return metric{Value: p.Value, Unit: unit, N: p.N, Beyond: &b}
}

// ratioMetric reports num/den with both bases.
func ratioMetric(num, den float64, numName, denName string) metric {
	return metric{Value: ratio(num, den), Unit: "ratio", Base: map[string]float64{numName: num, denName: den}}
}

// runRecord says what ran, with which parameters, on which machine.
type runRecord struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trace       bool           `json:"trace"`
	Params      map[string]any `json:"params"`
	GitRevision string         `json:"git_revision"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NProc       int            `json:"nproc"`
	CPUModel    string         `json:"cpu_model"`
}

func newRunRecord(workload string, seed int64, seconds int, trace bool) runRecord {
	return runRecord{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Params:      map[string]any{},
		GitRevision: gitRevision(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		CPUModel:    cpuModel(),
	}
}

// gitRevision is the VCS revision stamped into the binary, when it was
// built inside a git checkout.
func gitRevision() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux only).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report is the full account of one run, printed before the result line.
type report struct {
	Record runRecord `json:"record"`
	Phases []phase   `json:"phases"`
	// Failures quotes the first failed operations of each phase.
	Failures []string `json:"failures,omitempty"`
	// Errors lists what makes the run invalid (besides wrong answers).
	Errors []string `json:"errors,omitempty"`
	// ErrorRate is failed over attempted operations of the measured window;
	// the result line carries both counts.
	ErrorRate metric `json:"error_rate"`
	// EndToEnd are the gated end-to-end metrics (the result line's);
	// Ungated are reported only.
	EndToEnd  metrics `json:"end_to_end"`
	Ungated   metrics `json:"ungated,omitempty"`
	PerLayer  metrics `json:"per_layer,omitempty"`
	TraceFile string  `json:"trace_file,omitempty"`
}

// result is the last line of output: the run's verdict and the metrics of
// its mode (end-to-end untraced, per-layer traced), value and unit only.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// emit prints the report, then the result line built from the measured
// window's phases.
func emit(w io.Writer, rep *report, window []phase) error {
	res := result{Correct: true, Metrics: map[string]map[string]any{}}
	for _, p := range window {
		res.Attempted += p.Sent
		res.Failed += p.Failed
		if p.Wrong > 0 {
			res.Correct = false
		}
	}
	for _, p := range rep.Phases {
		if p.Wrong > 0 {
			res.Correct = false
		}
	}
	rep.ErrorRate = ratioMetric(float64(res.Failed), float64(res.Attempted), "failed", "attempted")
	src := rep.EndToEnd
	if rep.Record.Trace {
		src = rep.PerLayer
	}
	for name, m := range src {
		res.Metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return enc.Encode(res)
}
