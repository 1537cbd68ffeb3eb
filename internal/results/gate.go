package results

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// BenchResult is one parsed `go test -bench` line, in the exact JSON
// shape the bench2json CI artifacts have always used, so committed
// BENCH_*.json files parse unchanged.
type BenchResult struct {
	Name  string  `json:"name"`
	Procs int     `json:"procs,omitempty"`
	Runs  int64   `json:"runs"`
	NsOp  float64 `json:"ns_per_op"`
	// BytesOp and AllocsOp are pointers so a reported zero (the
	// allocation-free disabled observability path) survives in the
	// JSON while benches without -benchmem omit the fields entirely.
	BytesOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsOp *int64   `json:"allocs_per_op,omitempty"`
}

// Record converts the measurement into the canonical record shape:
// kind "bench", the benchmark name as the workload, allowance as the
// per-benchmark gate threshold override (0 = the gate default).
func (b BenchResult) Record(run string, allowance float64) Record {
	return Record{
		Kind:     "bench",
		Run:      run,
		Workload: b.Name,
		Bench: &Bench{
			Procs:     b.Procs,
			Runs:      b.Runs,
			NsOp:      b.NsOp,
			BytesOp:   b.BytesOp,
			AllocsOp:  b.AllocsOp,
			Allowance: allowance,
		},
	}
}

// ParseBenchLine parses one benchmark result line, e.g.
// "BenchmarkSweepWorkers/workers=4-8   5   238217412 ns/op", splitting
// the trailing -P GOMAXPROCS suffix into Procs and picking up B/op and
// allocs/op when present.
func ParseBenchLine(line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return BenchResult{}, false
	}
	// Values always precede their unit: "<float> ns/op", and with
	// -benchmem also "<float> B/op" and "<int> allocs/op".
	idx := -1
	for i, f := range fields {
		if f == "ns/op" {
			idx = i
			break
		}
	}
	if idx < 2 {
		return BenchResult{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	ns, err := strconv.ParseFloat(fields[idx-1], 64)
	if err != nil {
		return BenchResult{}, false
	}
	r := BenchResult{Name: fields[0], Runs: runs, NsOp: ns}
	for i, f := range fields {
		switch f {
		case "B/op":
			if v, err := strconv.ParseFloat(fields[i-1], 64); err == nil {
				r.BytesOp = &v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(fields[i-1], 10, 64); err == nil {
				r.AllocsOp = &v
			}
		}
	}
	// Split the trailing -P GOMAXPROCS suffix go test appends.
	if cut := strings.LastIndex(r.Name, "-"); cut > 0 {
		if p, err := strconv.Atoi(r.Name[cut+1:]); err == nil {
			r.Name, r.Procs = r.Name[:cut], p
		}
	}
	return r, true
}

// ParseBenchText parses `go test -bench` text output, one BenchResult
// per result line.
func ParseBenchText(r io.Reader) ([]BenchResult, error) {
	var results []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := ParseBenchLine(sc.Text()); ok {
			results = append(results, b)
		}
	}
	return results, sc.Err()
}

// loadReport is the slice of cmd/atgpu-load's JSON report the gate
// consumes: the per-concurrency latency levels, plus the server-side
// view the harness folds in from the daemon's /metrics deltas (absent
// in reports taken against a daemon without a telemetry plane).
type loadReport struct {
	Mode   string `json:"mode"`
	Levels []struct {
		C      int     `json:"c"`
		P50ms  float64 `json:"p50_ms"`
		Server *struct {
			QueueWaitMsMean float64 `json:"queue_wait_ms_mean"`
			ExecMsMean      float64 `json:"exec_ms_mean"`
		} `json:"server"`
	} `json:"levels"`
}

// ParseBenchFile loads benchmark results from a BENCH_*.json artifact.
// Two shapes are accepted: the bench2json array, and the atgpu-load
// report object, whose per-level p50 latencies become pseudo-benchmarks
// named "ServiceP50/c=<concurrency>" with ns/op = p50 (service
// latencies are real wall time, so gate them with a generous
// allowance). Levels carrying the server-side /metrics view additionally
// yield "ServiceQueueWaitMs/c=<n>" and "ServiceExecMs/c=<n>" from the
// daemon's own histograms, so a queueing or execute-phase regression is
// caught even when client-side round-trip numbers hide it.
func ParseBenchFile(path string) ([]BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimSpace(data)
	switch {
	case len(trimmed) == 0:
		return nil, nil
	case trimmed[0] == '[':
		var results []BenchResult
		if err := json.Unmarshal(trimmed, &results); err != nil {
			return nil, fmt.Errorf("results: %s: %w", path, err)
		}
		return results, nil
	case trimmed[0] == '{':
		var rep loadReport
		if err := json.Unmarshal(trimmed, &rep); err != nil {
			return nil, fmt.Errorf("results: %s: %w", path, err)
		}
		if len(rep.Levels) == 0 {
			return nil, fmt.Errorf("results: %s: load report has no levels", path)
		}
		var results []BenchResult
		for _, lv := range rep.Levels {
			results = append(results, BenchResult{
				Name: fmt.Sprintf("ServiceP50/c=%d", lv.C),
				Runs: 1,
				NsOp: lv.P50ms * 1e6,
			})
			if lv.Server == nil {
				continue
			}
			if lv.Server.QueueWaitMsMean > 0 {
				results = append(results, BenchResult{
					Name: fmt.Sprintf("ServiceQueueWaitMs/c=%d", lv.C),
					Runs: 1,
					NsOp: lv.Server.QueueWaitMsMean * 1e6,
				})
			}
			if lv.Server.ExecMsMean > 0 {
				results = append(results, BenchResult{
					Name: fmt.Sprintf("ServiceExecMs/c=%d", lv.C),
					Runs: 1,
					NsOp: lv.Server.ExecMsMean * 1e6,
				})
			}
		}
		return results, nil
	}
	return nil, fmt.Errorf("results: %s: neither a bench2json array nor a load report", path)
}

// Regression is one benchmark measurement that exceeded its allowed
// growth over the stored trajectory: its time per op or, when both sides
// carry it, its allocated bytes per op.
type Regression struct {
	Name string `json:"name"`
	// Unit names the measurement: "ns/op" or "B/op".
	Unit  string  `json:"unit"`
	Fresh float64 `json:"fresh"`
	Base  float64 `json:"base"`
	// Ratio is the fractional growth; Limit the threshold it broke.
	Ratio float64 `json:"ratio"`
	Limit float64 `json:"limit"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.0f %s vs trajectory %.0f %s (+%.1f%%, limit +%.0f%%)",
		r.Name, r.Fresh, r.Unit, r.Base, r.Unit, 100*r.Ratio, 100*r.Limit)
}

// Gate compares fresh benchmark results against the store's most
// recent record per benchmark name and returns the regressions beyond
// maxRegress (or the stored record's own Allowance when set). Time per
// op is always compared; bytes per op only when both the fresh and the
// stored record carry it (a -benchmem run) and the stored value is
// positive, since a zero base admits no relative limit. Benchmarks with
// no stored history pass — new benches land before their trajectory
// does.
func Gate(s *Store, fresh []BenchResult, maxRegress float64) []Regression {
	var regressions []Regression
	for _, b := range fresh {
		base, ok := s.Latest(Filter{Kind: "bench", Workload: b.Name})
		if !ok || base.Record.Bench == nil {
			continue
		}
		stored := base.Record.Bench
		limit := maxRegress
		if stored.Allowance > 0 {
			limit = stored.Allowance
		}
		check := func(unit string, got, was float64) {
			if was <= 0 {
				return
			}
			if ratio := got/was - 1; ratio > limit {
				regressions = append(regressions, Regression{
					Name: b.Name, Unit: unit, Fresh: got, Base: was, Ratio: ratio, Limit: limit,
				})
			}
		}
		check("ns/op", b.NsOp, stored.NsOp)
		if b.BytesOp != nil && stored.BytesOp != nil {
			check("B/op", *b.BytesOp, *stored.BytesOp)
		}
	}
	return regressions
}
