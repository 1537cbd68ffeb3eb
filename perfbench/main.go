// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator, the cost model, the result store and
// the atgpud service, checks the outputs, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the benchmark makes an untraced and a traced
// pass over the same inputs and reports the per-layer breakdown: a span
// around every call into a layer's public functions, folded into self
// times. METRICS.md documents every metric and which end-to-end number
// each layer metric should move.
//
// The metrics each mode must report, and their units, are read from
// BENCHMARK.json in the working directory.
//
// Usage (from the repository root; run.sh builds and runs this binary):
//
//	bash perfbench/run.sh --workload vecadd-sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// smoke shrinks every workload to a tiny size, for the benchmark's
	// own tests.
	smoke bool
	// workdir holds the span files and, while a run lasts, its scratch
	// directory.
	workdir string
	// scratch holds the run's result stores; runIn removes it.
	scratch string
	// catalog lists the metrics the run must report.
	catalog *catalog
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's outcome.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples states how many measurements each metric summarises.
	samples map[string]int
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric; runIn fills in its unit from the catalog.
func (r *report) set(name string, value float64, samples int) {
	r.Metrics[name] = metric{Value: value}
	r.samples[name] = samples
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"vecadd-sweep": func(o options) (*report, error) { return runSweep(o, vecAddSweep) },
	"matmul-sweep": func(o options) (*report, error) { return runSweep(o, matMulSweep) },
	"service-mix":  runServiceMix,
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: vecadd-sweep, matmul-sweep or service-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; sweep inputs and service request seeds derive from it")
	flag.IntVar(&seconds, "seconds", 30, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch stores and span files")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %s, -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cat, err := loadCatalog("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	o.catalog = cat
	rep, err := runIn(o, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	printTable(os.Stdout, o, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runIn runs one workload with a private scratch directory, removed
// afterwards, checks that the report carries exactly the metrics the
// catalog lists for its mode, and gives each its catalog unit.
func runIn(o options, run func(options) (*report, error)) (*report, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	o.scratch = scratch
	rep, err := run(o)
	if err != nil {
		return nil, err
	}
	units := map[string]string{}
	for _, d := range o.catalog.metrics(o.trace) {
		units[d.Name] = d.Unit
		if _, ok := rep.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	for name, m := range rep.Metrics {
		unit, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("metric %s is not in the catalog for this mode", name)
		}
		m.Unit = unit
		rep.Metrics[name] = m
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	rep.Correct = rep.Correct && rep.Failed == 0
	return rep, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable writes the human-readable form of the report: each metric
// with its unit and the number of measurements behind it.
func printTable(f *os.File, o options, rep *report) {
	mode := "end-to-end, tracing off"
	if o.trace {
		mode = "per-layer, traced pass"
	}
	fmt.Fprintf(f, "perfbench %s seed=%d (%s): attempted=%d failed=%d correct=%v\n",
		o.workload, o.seed, mode, rep.Attempted, rep.Failed, rep.Correct)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(f, "  %-26s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, rep.samples[n])
	}
}

// spanFile names the file the traced pass writes its spans to.
func spanFile(o options) string {
	return filepath.Join(o.workdir, "trace",
		fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}
