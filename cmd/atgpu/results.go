package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"atgpu/internal/results"
)

// resultsCmd dispatches the `atgpu results` subcommands over the
// append-only JSONL result store:
//
//	atgpu results list    -store results.jsonl [-kind K] [-workload W] [-machine M] [-run R]
//	atgpu results diff    -store results.jsonl -a runA -b runB [-format text|markdown|json]
//	atgpu results compare -store results.jsonl -a devA -b devB [-format ...]
//	atgpu results gate    -store trajectory.jsonl [-max-regress 0.15] [-append] [-run label] [-allowance F] BENCH*.json
//	atgpu results ingest  < bench.txt > BENCH.json
//
// diff aligns two run labels' records by identity key; compare aligns
// two machine presets (device names), blanking the machine from the
// key so the same measurement on different simulated hardware lines
// up. gate checks fresh BENCH_*.json artifacts against the stored
// trajectory and exits nonzero on any regression beyond the limit.
// ingest converts `go test -bench` text on stdin into the BENCH_*.json
// array gate reads, one object per result line: name (procs suffix in
// its own field), iterations, ns/op, and bytes/allocs per op when the
// benchmark reported them.
func resultsCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: atgpu results list|diff|compare|gate|ingest [flags]")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("results "+sub, flag.ExitOnError)
	store := fs.String("store", "results.jsonl", "result store path")
	kind := fs.String("kind", "", "list: filter by record kind")
	workload := fs.String("workload", "", "list: filter by workload")
	machine := fs.String("machine", "", "list: filter by device name")
	run := fs.String("run", "", "list: filter by run label; gate: label for -append")
	a := fs.String("a", "", "diff/compare: side A (run label, or device name for compare)")
	b := fs.String("b", "", "diff/compare: side B")
	format := fs.String("format", "text", "diff/compare: text, markdown or json")
	maxRegress := fs.Float64("max-regress", 0.15, "gate: default allowed fractional slowdown")
	appendFresh := fs.Bool("append", false, "gate: append passing fresh results to the store")
	allowance := fs.Float64("allowance", 0, "gate -append: allowance stored on benchmarks with no prior trajectory (0 = gate default)")
	if err := fs.Parse(rest); err != nil {
		return err
	}

	switch sub {
	case "list":
		return resultsList(*store, results.Filter{
			Kind: *kind, Workload: *workload, Machine: *machine, Run: *run,
		})
	case "diff", "compare":
		if *a == "" || *b == "" {
			return fmt.Errorf("results %s needs -a and -b", sub)
		}
		return resultsDiff(*store, sub, *a, *b, *format)
	case "gate":
		return resultsGate(*store, fs.Args(), *maxRegress, *allowance, *appendFresh, *run)
	case "ingest":
		fresh, err := results.ParseBenchText(os.Stdin)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(fresh)
	}
	return fmt.Errorf("unknown results subcommand %q (want list, diff, compare, gate or ingest)", sub)
}

// resultsList prints the matching entries, append order, one line each.
func resultsList(path string, f results.Filter) error {
	s, err := results.Open(path)
	if err != nil {
		return err
	}
	defer s.Close()
	entries := s.Query(f)
	fmt.Printf("%s: %d of %d entries\n", path, len(entries), s.Len())
	for _, e := range entries {
		r := e.Record
		line := fmt.Sprintf("%-9s %-28s", r.Kind, recordLabel(r))
		if v, unit, ok := r.Metric(); ok {
			line += fmt.Sprintf(" %14.6g %-5s", v, unit)
		} else {
			line += fmt.Sprintf(" %14s %-5s", "-", "")
		}
		if r.Run != "" {
			line += " run=" + r.Run
		}
		if r.Git != "" {
			line += " git=" + r.Git
		}
		if r.Failed {
			line += " FAILED"
		}
		fmt.Println(line)
	}
	return nil
}

// recordLabel compresses a record's identity for the list view.
func recordLabel(r results.Record) string {
	l := r.Workload
	if r.Machine != nil && r.Machine.Device.Name != "" {
		l += " [" + r.Machine.Device.Name + "]"
	}
	if r.N > 0 {
		l += fmt.Sprintf(" n=%d", r.N)
	}
	if r.Chunks > 0 {
		l += fmt.Sprintf(" c=%d", r.Chunks)
	}
	return l
}

// resultsDiff renders the comparison of two runs (mode "diff") or two
// machine presets (mode "compare") from one store.
func resultsDiff(path, mode, a, b, format string) error {
	s, err := results.Open(path)
	if err != nil {
		return err
	}
	defer s.Close()
	var ea, eb []results.Entry
	opts := results.CompareOptions{}
	if mode == "compare" {
		ea = s.Query(results.Filter{Machine: a})
		eb = s.Query(results.Filter{Machine: b})
		opts.IgnoreMachine = true
	} else {
		ea = s.Query(results.Filter{Run: a})
		eb = s.Query(results.Filter{Run: b})
	}
	if len(ea) == 0 {
		return fmt.Errorf("no entries for %q in %s", a, path)
	}
	if len(eb) == 0 {
		return fmt.Errorf("no entries for %q in %s", b, path)
	}
	rep := results.Compare(ea, eb, a, b, opts)
	return rep.Write(os.Stdout, format)
}

// resultsGate compares fresh BENCH_*.json artifacts against the stored
// trajectory. Regressions print and exit nonzero; with -append, the
// fresh measurements (all of them — the gate already passed) extend
// the trajectory, carrying each benchmark's stored allowance forward
// (benchmarks seen for the first time get defAllowance).
func resultsGate(path string, files []string, maxRegress, defAllowance float64, appendFresh bool, run string) error {
	if len(files) == 0 {
		return fmt.Errorf("results gate needs BENCH_*.json files to check")
	}
	s, err := results.Open(path)
	if err != nil {
		return err
	}
	defer s.Close()

	var fresh []results.BenchResult
	for _, f := range files {
		parsed, err := results.ParseBenchFile(f)
		if err != nil {
			return err
		}
		fmt.Printf("gate: %s: %d benchmarks\n", f, len(parsed))
		fresh = append(fresh, parsed...)
	}

	regressions := results.Gate(s, fresh, maxRegress)
	for _, r := range regressions {
		fmt.Printf("REGRESSION %s\n", r)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed beyond their limit", len(regressions), len(fresh))
	}
	fmt.Printf("gate: %d benchmarks within limits (default +%.0f%%)\n", len(fresh), 100*maxRegress)

	if appendFresh {
		host, _ := os.Hostname()
		env := &results.Env{SavedUnix: time.Now().Unix(), Host: host, Note: "gate append"}
		for _, bench := range fresh {
			allowance := defAllowance
			if base, ok := s.Latest(results.Filter{Kind: "bench", Workload: bench.Name}); ok &&
				base.Record.Bench != nil {
				allowance = base.Record.Bench.Allowance
			}
			rec := bench.Record(run, allowance)
			rec.Git = results.BuildStamp()
			if err := s.Append(rec, env); err != nil {
				return err
			}
		}
		fmt.Printf("gate: appended %d fresh measurements to %s\n", len(fresh), path)
	}
	return nil
}
