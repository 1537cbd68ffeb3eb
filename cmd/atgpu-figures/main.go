// Command atgpu-figures regenerates the data behind every table and figure
// of the paper's evaluation: Table I (model feature comparison), Figures
// 3–5 (predicted, observed and normalised results for vector addition,
// reduction and matrix multiplication) and Figure 6 (transfer-proportion
// accuracy), plus the Section IV-D summary statistics.
//
// Output is CSV per figure (written under -out) plus ASCII charts and the
// summary on stdout.
//
// Usage:
//
//	atgpu-figures [-fig 3|4|5|6|all] [-full] [-out DIR] [-o DIR] [-summary] [-workers W] [-run label]
//
// -full uses the paper's exact input sizes (minutes of simulation); the
// default is a 10×-scaled sweep that finishes in seconds and preserves
// every trend the paper reports. -workers spreads each sweep's points
// over that many goroutines (0 = all cores); figures, CSVs and summaries
// are byte-identical for any worker count.
//
// -o DIR additionally appends every sweep's canonical records to
// DIR/records.jsonl (and, when -out is not set, directs the CSVs to DIR
// too), so a figure regeneration leaves a queryable trajectory behind.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"atgpu/internal/experiments"
	"atgpu/internal/models"
	"atgpu/internal/plot"
	"atgpu/internal/results"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1 (Table I), 3, 4, 5, 6, ext (future-work studies), or all")
	full := flag.Bool("full", false, "use the paper's full input sizes (slow)")
	out := flag.String("out", "", "directory for CSV output (default: stdout charts only)")
	oDir := flag.String("o", "", "output dir: append records to <dir>/records.jsonl (and CSVs there unless -out is set)")
	summary := flag.Bool("summary", true, "print the §IV-D summary statistics")
	workers := flag.Int("workers", 0, "worker goroutines per sweep (0 = GOMAXPROCS, 1 = sequential)")
	runLabel := flag.String("run", "figures", "run label stamped on persisted records (-o)")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "atgpu-figures: negative workers %d\n", *workers)
		os.Exit(2)
	}
	csvDir := *out
	if csvDir == "" {
		csvDir = *oDir
	}
	if err := run(*fig, *full, csvDir, *oDir, *runLabel, *summary, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "atgpu-figures:", err)
		os.Exit(1)
	}
}

func run(fig string, full bool, outDir, recordsDir, runLabel string, summary bool, workers int) error {
	if fig == "1" || fig == "table1" {
		fmt.Println("Table I — comparison of GPU abstract models")
		fmt.Println(models.TableI())
		return nil
	}

	cfg := experiments.DefaultConfig()
	cfg.Full = full
	cfg.Workers = workers
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		return err
	}
	cp := runner.CostParams()
	fmt.Printf("device: %s  scheme: %s  full: %v\n", cfg.Device.Name, cfg.Scheme, full)
	fmt.Printf("calibrated cost params: γ=%.3g op/s  λ=%.3g cy  σ=%.3g s  α=%.3g s  β=%.3g s/word  k'=%d  H=%d\n\n",
		cp.Gamma, cp.Lambda, cp.Sigma, cp.Alpha, cp.Beta, cp.KPrime, cp.H)

	if fig == "all" || fig == "1" {
		fmt.Println("Table I — comparison of GPU abstract models")
		fmt.Println(models.TableI())
	}

	if fig == "ext" || fig == "all" {
		if err := runExtensions(runner, full); err != nil {
			return err
		}
	}

	// Every registry entry with a panel in the selection is swept.
	inSelection := func(id string) bool { return fig == "all" || figMatches(id, fig) }
	for _, w := range experiments.Workloads() {
		if !slices.ContainsFunc(w.Panels(), inSelection) {
			continue
		}
		start := time.Now()
		data, err := runner.Sweep(w.Name)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		wall := time.Since(start)
		// Wall time goes to stderr: stdout (charts, CSVs, summaries) is
		// deterministic and byte-identical for any -workers value.
		fmt.Fprintf(os.Stderr, "atgpu-figures: %s sweep: %.1fs wall\n",
			w.Name, wall.Seconds())
		path, err := results.PersistRun(recordsDir, runLabel, data.Records, workers, time.Now(), wall)
		if err != nil {
			return err
		}
		if path != "" {
			fmt.Fprintf(os.Stderr, "atgpu-figures: %d records -> %s\n", len(data.Records), path)
		}
		fmt.Printf("== %s sweep (%d sizes) ==\n", w.Name, len(data.Points))

		for _, f := range experiments.Figures(data) {
			if !inSelection(f.ID) {
				continue
			}
			fmt.Println(plot.ASCII(fmt.Sprintf("%s — %s", f.ID, f.Title), 60, 12, f.Series...))
			if outDir != "" {
				if err := writeCSV(outDir, f); err != nil {
					return err
				}
			}
		}
		if summary {
			s, err := experiments.Summarise(data)
			if err != nil {
				return err
			}
			fmt.Println(s)
		}
	}
	return nil
}

// runExtensions prints the future-work studies (§V): scan verification,
// the transpose coalescing contrast, out-of-core scheduling, and the
// cross-device sweep.
func runExtensions(runner *experiments.Runner, full bool) error {
	fmt.Println("== future-work extensions (§V) ==")

	scan, err := runner.Sweep("scan")
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	s, err := experiments.Summarise(scan)
	if err != nil {
		return err
	}
	fmt.Println("-- scan (prefix sum) verification --")
	fmt.Println(s)

	size := 128
	if full {
		size = 512
	}
	tc, err := runner.RunTransposeContrast(size)
	if err != nil {
		return fmt.Errorf("transpose: %w", err)
	}
	fmt.Printf("-- transpose coalescing contrast (n=%d) --\n", tc.N)
	fmt.Printf("model q:       naive %.0f vs tiled %.0f (ratio %.1fx)\n",
		tc.NaiveQ, tc.TiledQ, tc.NaiveQ/tc.TiledQ)
	fmt.Printf("device cycles: naive %d vs tiled %d (ratio %.1fx)\n",
		tc.NaiveCycles, tc.TiledCycles, float64(tc.NaiveCycles)/float64(tc.TiledCycles))
	fmt.Printf("model orders the variants correctly: %v\n\n", tc.ModelOrdersCorrectly)

	oocChunks := []int{1 << 11, 1 << 12, 1 << 13}
	ooc, err := runner.RunOutOfCore(1<<16, oocChunks)
	if err != nil {
		return fmt.Errorf("out-of-core: %w", err)
	}
	fmt.Println("-- out-of-core reduction: serial vs overlapped --")
	fmt.Printf("%-12s %8s %12s %12s %8s %12s %12s\n",
		"chunk", "chunks", "serial(s)", "overlap(s)", "speedup", "pred-ser(s)", "pred-ovl(s)")
	for i, p := range ooc {
		seq, pipe := p.Sequential.TotalTime, p.Pipelined.TotalTime
		fmt.Printf("%-12d %8d %12.6f %12.6f %7.2fx %12.6f %12.6f\n",
			oocChunks[i], p.Chunks, seq, pipe, seq/pipe, p.PredictedSequential, p.PredictedPipelined)
	}
	fmt.Println()

	stratN := 1 << 16
	if full {
		stratN = 1 << 20
	}
	strats, err := runner.RunReduceStrategies(stratN)
	if err != nil {
		return fmt.Errorf("strategies: %w", err)
	}
	fmt.Printf("-- reduction strategy study (n=%d) --\n", stratN)
	fmt.Printf("%-14s %8s %10s %14s %14s\n", "strategy", "rounds", "blocks", "predicted(s)", "observed(s)")
	for _, p := range strats {
		fmt.Printf("%-14s %8d %10d %14.6f %14.6f\n",
			p.Strategy, p.Rounds, p.Blocks, p.PredictedKernel, p.ObservedKernel)
	}
	fmt.Printf("model/device pairwise ordering agreement: %.0f%%\n\n",
		100*experiments.StrategyOrderingAgreement(strats))

	devs, err := experiments.RunDeviceSweep(1<<18, runner.Config().Scheme)
	if err != nil {
		return fmt.Errorf("device sweep: %w", err)
	}
	fmt.Println("-- cross-device verification (vecadd probe) --")
	fmt.Printf("%-14s %8s %8s %10s\n", "device", "ΔT", "ΔE", "coverage")
	for _, p := range devs {
		fmt.Printf("%-14s %7.1f%% %7.1f%% %9.2fx\n",
			p.Device, 100*p.DeltaPredicted, 100*p.DeltaObserved, p.CostCoverage)
	}
	fmt.Println()
	return nil
}

// figMatches reports whether a figure ID like "fig3a" belongs to the
// selection "3" (or "6" etc.).
func figMatches(id, sel string) bool {
	return len(id) >= 4 && id[:3] == "fig" && id[3:4] == sel
}

func writeCSV(dir string, f experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, f.ID+".csv")
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	if err := plot.WriteCSV(fh, f.XLabel, f.Series...); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return fh.Close()
}
