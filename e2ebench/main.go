// Command e2ebench is the repository's end-to-end benchmark. It builds the
// serving system in process from source, drives one named workload at a
// given seed against its public entry points, checks every answer, and
// prints a full JSON report followed by a one-line JSON result.
//
//	e2ebench --workload hot-wire --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries per-layer metrics from a traced window and a module replay,
// and the spans are written to .bench_build/traces/. See BENCHMARK.json at
// the repository root for the workloads and metrics. The program exits 1
// if any answer was wrong or the run could not be measured.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// callers bounds the requests or calls in flight: one per processor.
	callers int
	// rate is hot-wire's open-loop request rate: wireRate, other rates in
	// tests.
	rate float64
	rec  runRecord
	tr   *tracer
}

// setupReps is how many times an untraced run sets up, to report the
// median set-up time; a traced run sets up once.
func (c *config) setupReps() int {
	if c.trace {
		return 1
	}
	return 3
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*report, []phase, error){
	"hot-wire":     hotWire,
	"hot-bulk":     hotBulk,
	"tenant-churn": tenantChurn,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: hot-wire, hot-bulk or tenant-churn")
		seed     = flag.Int64("seed", 1, "workload seed: tenant QoS classes, traffic draws and inputs derive from it")
		seconds  = flag.Int("seconds", 10, "measured window length in seconds (tenant-churn: sizes its operation count)")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload hot-wire|hot-bulk|tenant-churn, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	c := &config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		callers: runtime.NumCPU(), rate: wireRate,
	}
	c.rec = newRunRecord(c.workload, c.seed, c.seconds, c.trace)
	c.rec.Params["callers"] = c.callers
	c.rec.Params["population_seed"] = populationSeed
	c.rec.Params["deployment"] = deploymentParams()
	if c.trace {
		c.tr = newTracer()
	}
	rep, window, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	if c.trace {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = c.tr.write(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			os.Exit(1)
		}
		rep.TraceFile = path
	}
	if err := emit(os.Stdout, rep, window); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	for _, p := range rep.Phases {
		if p.Wrong > 0 {
			os.Exit(1)
		}
	}
	if len(rep.Errors) > 0 {
		os.Exit(1)
	}
}
