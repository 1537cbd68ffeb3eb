// Command atgpu analyses algorithms on the ATGPU abstract model: it prints
// per-round metrics, evaluates the perfect-GPU and GPU cost functions,
// compares against the SWGPU baseline, and renders the paper's Table I.
//
// Usage:
//
//	atgpu table1
//	atgpu calibrate
//	atgpu analyze -alg WORKLOAD -n N
//	atgpu lint    [-alg WORKLOAD -n N] [-blocks B] [-json] [-o out] [file.pseudo ...]
//	atgpu run     -alg vecadd|reduce|matmul -n N [--lint warn|error] [--fault-rate R --fault-seed S --max-retries K]
//	atgpu sweep   -alg WORKLOAD [-pipeline] [-full] [--workers W] [--lint warn|error] [fault flags] [-o dir -run label]
//
// WORKLOAD for analyze, lint and sweep is any entry of the experiments
// workload registry: the three paper workloads (vecadd, reduce, matmul),
// scan, and the atomic workloads (histogram, histogram-priv, compact,
// topk, montecarlo). sweep -pipeline takes the entries with a pipelined
// variant (vecadd, reduce, matmul). The atomic sweeps report the
// contention-priced cost estimate next to the simulated timing, so
// histogram vs histogram-priv shows the predicted and observed price of
// shared-counter serialisation side by side.
//
//	atgpu ooc     -n N -chunk C
//	atgpu results list|diff|compare|gate [-store results.jsonl] [flags]
//
// lint statically analyses kernels — shared-memory races, barrier
// divergence, out-of-bounds accesses, bank-conflict/coalescing prediction
// and an Expression (1)/(2) cost estimate — without running them, and exits
// non-zero on error-severity findings. It takes either a built-in workload
// (-alg/-n) or pseudocode files, whose `#! lint:` directives supply the
// block count and parameter bindings. With --lint warn|error, run and sweep
// additionally pre-flight every kernel launch: warn reports findings to
// stderr, error also refuses launches with error-severity findings.
//
// analyze prices the algorithm on the abstract model; run additionally
// executes it on the simulated GTX 650 and reports predicted-vs-observed.
// sweep runs the paper's full predicted-vs-observed size sweep for one
// workload, dispatching points to --workers goroutines (0 = all cores);
// its stdout is byte-identical for any worker count. With
// --fault-rate > 0, run and sweep inject deterministic seeded faults into
// transfers and launches and report the recovery work (retries, watchdog
// fires, degraded launches) alongside the timing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"atgpu"
	"atgpu/internal/algorithms"
	"atgpu/internal/core"
	"atgpu/internal/experiments"
	"atgpu/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "results" {
		if err := resultsCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "atgpu:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	alg := fs.String("alg", "vecadd", "workload: "+strings.Join(experiments.Names(), ", ")+" (run takes vecadd, reduce, matmul)")
	n := fs.Int("n", 1_000_000, "input size (vector length / matrix side)")
	chunk := fs.Int("chunk", 1<<18, "out-of-core chunk size in words")
	full := fs.Bool("full", false, "sweep: use the paper's exact input sizes (minutes)")
	workers := fs.Int("workers", 0, "sweep: worker goroutines per sweep (0 = GOMAXPROCS, 1 = sequential)")
	pipeline := fs.Bool("pipeline", false, "run/sweep: chunked multi-stream pipelined schedule, sequential vs overlapped")
	chunks := fs.Int("chunks", 0, "pipeline: chunk (matmul band) count (0 = default 4)")
	faultRate := fs.Float64("fault-rate", 0, "fault injection probability in [0,1]; 0 disables")
	faultSeed := fs.Int64("fault-seed", 1, "fault injector seed (same seed replays the same faults)")
	maxRetries := fs.Int("max-retries", 0, "transfer retry budget override (0 = default)")
	traceOut := fs.String("trace", "", "run/sweep: write a Perfetto trace-event JSON of the simulated timeline to this file")
	metricsOut := fs.String("metrics", "", "run/sweep: write a Prometheus-text metrics snapshot to this file")
	traceMaxEvents := fs.Int("trace-max-events", 0, "cap on recorded trace events (0 = default 1048576)")
	lintMode := fs.String("lint", "", "run/sweep: static-analysis pre-flight: off, warn, or error (error refuses launches with error-severity findings)")
	lintBlocks := fs.Int("blocks", 0, "lint: override the launch block count for .pseudo files (0 = the file's #! lint: blocks directive, or 1)")
	jsonOut := fs.Bool("json", false, "lint: emit JSON reports instead of text")
	outPath := fs.String("o", "", "lint: write the report to this file; sweep: write canonical records to <dir>/records.jsonl")
	runLabel := fs.String("run", "local", "sweep: run label stamped on persisted records (-o)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "atgpu: negative workers %d\n", *workers)
		os.Exit(2)
	}
	if *traceMaxEvents < 0 {
		fmt.Fprintf(os.Stderr, "atgpu: negative trace-max-events %d\n", *traceMaxEvents)
		os.Exit(2)
	}

	opts := atgpu.DefaultOptions()
	opts.Workers = *workers
	opts.FaultRate = *faultRate
	opts.FaultSeed = *faultSeed
	opts.MaxRetries = *maxRetries
	opts.Chunks = *chunks
	opts.Trace = *traceOut != ""
	opts.Metrics = *metricsOut != ""
	opts.TraceMaxEvents = *traceMaxEvents
	mode, err := atgpu.ParseLintMode(*lintMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atgpu:", err)
		os.Exit(2)
	}
	opts.Lint = mode
	if mode != atgpu.LintOff {
		opts.LintWriter = os.Stderr
	}

	if cmd == "lint" {
		if err := lintCmd(fs.Args(), *alg, *n, *lintBlocks, *jsonOut, *outPath, opts); err != nil {
			fmt.Fprintln(os.Stderr, "atgpu:", err)
			os.Exit(1)
		}
		return
	}
	// SIGINT/SIGTERM cancels long sweeps between points; the sweep then
	// flushes the partial table, trace and metrics before exiting nonzero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := dispatch(ctx, cmd, *alg, *n, *chunk, *full, *pipeline, opts, *traceOut, *metricsOut, *outPath, *runLabel); err != nil {
		fmt.Fprintln(os.Stderr, "atgpu:", err)
		os.Exit(1)
	}
}

// writeObs writes the run's unified trace and metrics to the requested
// paths, surfacing truncation — a truncated trace would otherwise be
// silently incomplete. No-op when neither path was requested.
func writeObs(rep *obs.Report, traceOut, metricsOut string) error {
	if traceOut == "" && metricsOut == "" {
		return nil
	}
	if rep == nil {
		return fmt.Errorf("no observability report collected (trace/metrics unsupported by this subcommand)")
	}
	if traceOut != "" {
		if err := rep.WriteTraceFile(traceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "atgpu: trace: %d events -> %s\n", rep.Trace.Len(), traceOut)
		if rep.Trace.WasTruncated() {
			fmt.Fprintf(os.Stderr, "atgpu: warning: trace truncated at max-events=%d; raise --trace-max-events\n",
				rep.Trace.Cap())
		}
	}
	if metricsOut != "" {
		if err := rep.WriteMetricsFile(metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "atgpu: metrics -> %s\n", metricsOut)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: atgpu <command> [flags]

commands:
  table1      print the paper's Table I model comparison
  calibrate   print the calibrated cost parameters for the default device
  analyze     price a workload on the abstract model     (-alg, -n)
  lint        static analysis: races, barrier divergence, bounds,
              memory-performance and cost prediction      (-alg -n | file.pseudo ..., -blocks, -json, -o)
  run         predicted-vs-observed on the simulated GPU (-alg, -n)
  sweep       predicted-vs-observed size sweep           (-alg, -full, -workers, -o dir, -run label)
  ooc         out-of-core reduction, serial vs overlapped (-n, -chunk)
  results     query the canonical result store:
              list | diff -a runA -b runB | compare -a devA -b devB |
              gate trajectory-vs-fresh-BENCH regression check

workloads (analyze, lint, sweep): `+strings.Join(experiments.Names(), " ")+`
(run takes vecadd, reduce and matmul; the atomics carry contention pricing)

static pre-flight (run, sweep): --lint warn reports findings for every
launched kernel to stderr; --lint error also refuses launches with
error-severity findings (races, divergent barriers, definite traps).

pipelining (run, sweep): --pipeline [--chunks C] compares the sequential
chunked schedule against the overlapped multi-stream schedule and reports
predicted vs simulated overlap savings.

fault injection (run, sweep): --fault-rate R --fault-seed S --max-retries K

observability (run, sweep): --trace out.json writes one Perfetto trace of
the whole run (host, streams, device blocks, transfers, faults on a single
simulated-time axis); --metrics out.prom writes a deterministic Prometheus
text snapshot; --trace-max-events caps trace growth.`)
}

func dispatch(ctx context.Context, cmd, alg string, n, chunk int, full, pipeline bool, opts atgpu.Options, traceOut, metricsOut, outDir, runLabel string) error {
	switch cmd {
	case "table1":
		fmt.Println("Table I — comparison of GPU abstract models")
		fmt.Print(atgpu.TableI())
		return nil
	case "calibrate":
		sys, err := atgpu.NewSystem(opts)
		if err != nil {
			return err
		}
		cp := sys.CostParams()
		fmt.Printf("gamma  (op rate)        %.6g op/s\n", cp.Gamma)
		fmt.Printf("lambda (global latency) %.6g cycles\n", cp.Lambda)
		fmt.Printf("sigma  (sync cost)      %.6g s\n", cp.Sigma)
		fmt.Printf("alpha  (transfer setup) %.6g s\n", cp.Alpha)
		fmt.Printf("beta   (per word)       %.6g s\n", cp.Beta)
		fmt.Printf("k'     (multiprocessors) %d\n", cp.KPrime)
		fmt.Printf("H      (blocks per SM)   %d\n", cp.H)
		return nil
	case "analyze":
		return analyzeCmd(alg, n, opts)
	case "run":
		if pipeline {
			return runPipelined(alg, n, opts, traceOut, metricsOut)
		}
		return run(alg, n, opts, traceOut, metricsOut)
	case "sweep":
		if pipeline {
			return sweepPipelined(ctx, alg, full, opts, traceOut, metricsOut, outDir, runLabel)
		}
		return sweep(ctx, alg, full, opts, traceOut, metricsOut, outDir, runLabel)
	case "ooc":
		return ooc(n, chunk, opts)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func analyzeCmd(alg string, n int, opts atgpu.Options) error {
	sys, err := atgpu.NewSystem(opts)
	if err != nil {
		return err
	}
	pred, err := sys.AnalyzeWorkload(alg, n)
	if err != nil {
		return err
	}
	a := pred.Analysis
	fmt.Printf("%s on %s\n", a.Name, a.Params)
	fmt.Printf("rounds R = %d\n", a.R())
	for i, r := range a.Rounds {
		if i < 5 || i == a.R()-1 {
			fmt.Printf("  round %d: t=%.0f q=%.0f blocks=%d shared=%d global=%d I=%d(Î=%d) O=%d(Ô=%d)\n",
				i+1, r.Time, r.IO, r.Blocks, r.SharedWords, r.GlobalWords,
				r.InWords, r.InTransactions, r.OutWords, r.OutTransactions)
		} else if i == 5 {
			fmt.Printf("  ... %d more rounds ...\n", a.R()-6)
		}
	}
	fmt.Printf("total transfer words Σ(I+O) = %d\n", a.TotalTransferWords())
	fmt.Printf("perfect-GPU cost (Expr 1) = %.6g s\n", pred.PerfectCost)
	fmt.Printf("GPU-cost (Expr 2)         = %.6g s\n", pred.GPUCost)
	fmt.Printf("SWGPU baseline cost       = %.6g s\n", pred.SWGPUCost)
	fmt.Printf("predicted transfer share ΔT = %.1f%%\n", 100*pred.TransferFraction)
	return nil
}

func run(alg string, n int, opts atgpu.Options, traceOut, metricsOut string) error {
	sys, err := atgpu.NewSystem(opts)
	if err != nil {
		return err
	}
	pred, err := sys.AnalyzeWorkload(alg, n)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(1))
	randWords := func(n int) []atgpu.Word {
		w := make([]atgpu.Word, n)
		for i := range w {
			w[i] = atgpu.Word(rng.Intn(2001) - 1000)
		}
		return w
	}

	var ob atgpu.Observation
	switch alg {
	case "vecadd":
		a, b := randWords(n), randWords(n)
		var c []atgpu.Word
		if c, ob, err = sys.RunVecAdd(a, b); err != nil {
			return err
		}
		want, _ := algorithms.VecAddReference(a, b)
		for i := range want {
			if c[i] != want[i] {
				return fmt.Errorf("verification failed at %d", i)
			}
		}
	case "reduce":
		in := randWords(n)
		var sum atgpu.Word
		if sum, ob, err = sys.RunReduce(in); err != nil {
			return err
		}
		if sum != algorithms.ReduceReference(in) {
			return fmt.Errorf("verification failed: %d", sum)
		}
	case "matmul":
		a, b := randWords(n*n), randWords(n*n)
		var c []atgpu.Word
		if c, ob, err = sys.RunMatMul(a, b, n); err != nil {
			return err
		}
		want, _ := algorithms.MatMulReference(a, b, n)
		for i := range want {
			if c[i] != want[i] {
				return fmt.Errorf("verification failed at %d", i)
			}
		}
	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}

	fmt.Printf("%s n=%d (verified against CPU reference)\n", alg, n)
	fmt.Printf("observed:  total=%v kernel=%v transfer=%v sync=%v rounds=%d\n",
		ob.Total, ob.Kernel, ob.Transfer, ob.Sync, ob.Rounds)
	fmt.Printf("predicted: GPU-cost=%.6gs SWGPU=%.6gs\n", pred.GPUCost, pred.SWGPUCost)
	fmt.Printf("ΔE (observed transfer share)  = %.1f%%\n", 100*ob.TransferFraction)
	fmt.Printf("ΔT (predicted transfer share) = %.1f%%\n", 100*pred.TransferFraction)
	fmt.Printf("kernel stats:\n%s\n", ob.Stats)
	if ob.Transfers.Faulted() || ob.Resilience.Degraded() {
		fmt.Printf("resilience: %d retries (%d words re-sent, backoff %v), %d corruptions, %d drops, %d stalls\n",
			ob.Transfers.Retries, ob.Transfers.RetransferredWords, ob.Transfers.BackoffTime,
			ob.Transfers.CorruptionsDetected, ob.Transfers.DroppedTransactions, ob.Transfers.StallEvents)
		fmt.Printf("            %d watchdog fires (%v lost), %d relaunches, %d degraded launches, %d failed SMs\n",
			ob.Resilience.WatchdogFires, ob.Resilience.WatchdogTime, ob.Resilience.Relaunches,
			ob.Resilience.DegradedLaunches, ob.Resilience.FailedSMs)
		for _, ev := range ob.FaultLog {
			fmt.Printf("  fault %s\n", ev)
		}
	}
	return writeObs(ob.Report, traceOut, metricsOut)
}

// runPipelined executes one workload's sequential-chunked and overlapped
// multi-stream schedules on identical inputs and reports the observed
// saving alongside the overlapped-cost model's prediction.
func runPipelined(alg string, n int, opts atgpu.Options, traceOut, metricsOut string) error {
	sys, err := atgpu.NewSystem(opts)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(1))
	randWords := func(n int) []atgpu.Word {
		w := make([]atgpu.Word, n)
		for i := range w {
			w[i] = atgpu.Word(rng.Intn(2001) - 1000)
		}
		return w
	}

	var pr atgpu.PipelineRun
	var pc core.PipelinedCost
	switch alg {
	case "vecadd":
		a, b := randWords(n), randWords(n)
		var c []atgpu.Word
		if c, pr, err = sys.RunVecAddPipelined(a, b); err != nil {
			return err
		}
		want, _ := algorithms.VecAddReference(a, b)
		for i := range want {
			if c[i] != want[i] {
				return fmt.Errorf("verification failed at %d", i)
			}
		}
		if pc, err = sys.AnalyzeVecAddPipelined(n); err != nil {
			return err
		}
	case "reduce":
		in := randWords(n)
		var sum atgpu.Word
		if sum, pr, err = sys.RunReducePipelined(in); err != nil {
			return err
		}
		if sum != algorithms.ReduceReference(in) {
			return fmt.Errorf("verification failed: %d", sum)
		}
		if pc, err = sys.AnalyzeReducePipelined(n); err != nil {
			return err
		}
	case "matmul":
		a, b := randWords(n*n), randWords(n*n)
		var c []atgpu.Word
		if c, pr, err = sys.RunMatMulPipelined(a, b, n); err != nil {
			return err
		}
		want, _ := algorithms.MatMulReference(a, b, n)
		for i := range want {
			if c[i] != want[i] {
				return fmt.Errorf("verification failed at %d", i)
			}
		}
		if pc, err = sys.AnalyzeMatMulPipelined(n); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}

	fmt.Printf("%s n=%d pipelined (chunks=%d, streams=%d, verified against CPU reference)\n",
		alg, n, pr.Chunks, pr.Streams)
	fmt.Printf("sequential schedule: total=%v kernel=%v transfer=%v sync=%v\n",
		pr.Sequential.Total, pr.Sequential.Kernel, pr.Sequential.Transfer, pr.Sequential.Sync)
	fmt.Printf("pipelined schedule:  total=%v kernel=%v transfer=%v sync=%v\n",
		pr.Pipelined.Total, pr.Pipelined.Kernel, pr.Pipelined.Transfer, pr.Pipelined.Sync)
	fmt.Printf("observed saving:  %v (%.1f%%)\n", pr.Saving, 100*pr.SavingFraction())
	fmt.Printf("predicted: sequential=%.6gs pipelined=%.6gs saving=%.6gs (%.1f%%)\n",
		pc.Sequential, pc.Pipelined, pc.Saving(), 100*pc.SavingFraction())
	return writeObs(pr.Report, traceOut, metricsOut)
}

// sweepPipelined runs one workload's sequential-versus-pipelined size
// sweep. Stdout is byte-identical for any --workers value. On SIGINT the
// completed points, trace and metrics are still flushed before the
// cancellation error propagates.
func sweepPipelined(ctx context.Context, alg string, full bool, opts atgpu.Options, traceOut, metricsOut, outDir, runLabel string) error {
	r, err := sweepRunner(ctx, full, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	data, err := r.SweepPipelined(alg)
	cancelled := errors.Is(err, experiments.ErrCancelled)
	if err != nil && !cancelled {
		return err
	}
	fmt.Fprintf(os.Stderr, "atgpu: %s pipelined sweep: %d sizes in %.1fs (workers=%d)\n",
		alg, len(data.Points), time.Since(start).Seconds(), opts.Workers)

	first := experiments.PipelinePoint{}
	if len(data.Points) > 0 {
		first = data.Points[0]
	}
	fmt.Printf("%s pipelined sweep (%d sizes, chunks=%d, streams=%d)\n",
		alg, len(data.Points), first.Chunks, first.Streams)
	fmt.Printf("%12s %14s %14s %9s %14s %14s %9s\n",
		"n", "seq(s)", "pipe(s)", "saved", "pred-seq(s)", "pred-pipe(s)", "pred-saved")
	for _, p := range data.Points {
		if p.Failed {
			fmt.Printf("%12d FAILED: %s\n", p.N, p.Err)
			continue
		}
		fmt.Printf("%12d %14.6g %14.6g %8.1f%% %14.6g %14.6g %8.1f%%\n",
			p.N, p.SequentialTime, p.PipelinedTime, 100*p.ObservedSavingFraction(),
			p.PredictedSequential, p.PredictedPipelined, 100*p.PredictedSavingFraction())
	}
	if werr := writeObs(data.Obs, traceOut, metricsOut); werr != nil {
		return werr
	}
	if werr := persistSweepRecords(outDir, runLabel, data.Records, opts.Workers, time.Since(start)); werr != nil {
		return werr
	}
	if cancelled {
		return sweepInterrupted(data.Points, func(i int) bool { return data.Points[i].Failed })
	}
	return nil
}

// sweep runs one workload's full predicted-vs-observed size sweep through
// the experiments runner. The points table and summary go to stdout, which
// is byte-identical for any --workers value; the wall-clock line goes to
// stderr so the deterministic output can be diffed or checksummed. On
// SIGINT the completed points, trace and metrics are still flushed (the
// summary is skipped — it would describe a truncated sweep) before the
// cancellation error propagates.
func sweep(ctx context.Context, alg string, full bool, opts atgpu.Options, traceOut, metricsOut, outDir, runLabel string) error {
	r, err := sweepRunner(ctx, full, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	data, err := r.Sweep(alg)
	cancelled := errors.Is(err, experiments.ErrCancelled)
	if err != nil && !cancelled {
		return err
	}
	fmt.Fprintf(os.Stderr, "atgpu: %s sweep: %d sizes in %.1fs (workers=%d)\n",
		alg, len(data.Points), time.Since(start).Seconds(), opts.Workers)

	fmt.Printf("%s sweep (%d sizes)\n", alg, len(data.Points))
	fmt.Printf("%12s %14s %14s %14s %8s %8s %s\n",
		"n", "total(s)", "kernel(s)", "ATGPU(s)", "ΔE", "ΔT", "status")
	for _, p := range data.Points {
		status := "ok"
		if p.Failed {
			status = "FAILED: " + p.Err
		} else if p.Degraded() {
			status = "degraded"
		}
		fmt.Printf("%12d %14.6g %14.6g %14.6g %7.1f%% %7.1f%% %s\n",
			p.N, p.TotalTime, p.KernelTime, p.ATGPUCost,
			100*p.DeltaObserved, 100*p.DeltaPredicted, status)
	}
	if !cancelled {
		s, err := experiments.Summarise(data)
		if err != nil {
			return err
		}
		fmt.Print(s.String())
	}
	if werr := writeObs(data.Obs, traceOut, metricsOut); werr != nil {
		return werr
	}
	if werr := persistSweepRecords(outDir, runLabel, data.Records, opts.Workers, time.Since(start)); werr != nil {
		return werr
	}
	if cancelled {
		return sweepInterrupted(data.Points, func(i int) bool { return data.Points[i].Failed })
	}
	return nil
}

// sweepRunner builds the runner the sweep subcommands drive: the CLI's
// options at the chosen scale, cancelled by ctx.
func sweepRunner(ctx context.Context, full bool, opts atgpu.Options) (*experiments.Runner, error) {
	cfg := opts.ExperimentConfig()
	cfg.Full = full
	cfg.Context = ctx
	return experiments.NewRunner(cfg)
}

// sweepInterrupted builds the nonzero-exit error for a cancelled sweep,
// after the partial table and observability files have been flushed.
func sweepInterrupted[T any](points []T, failed func(i int) bool) error {
	done := 0
	for i := range points {
		if !failed(i) {
			done++
		}
	}
	return fmt.Errorf("interrupted: %d of %d points completed (partial results flushed): %w",
		done, len(points), experiments.ErrCancelled)
}

func ooc(n, chunk int, opts atgpu.Options) error {
	sys, err := atgpu.NewSystem(opts)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	in := make([]atgpu.Word, n)
	for i := range in {
		in[i] = atgpu.Word(rng.Intn(2))
	}
	res, err := sys.RunOutOfCoreReduce(in, chunk)
	if err != nil {
		return err
	}
	if res.Sum != algorithms.ReduceReference(in) {
		return fmt.Errorf("verification failed: %d", res.Sum)
	}
	fmt.Printf("out-of-core reduce n=%d chunk=%d (%d chunks, verified)\n", n, chunk, res.Chunks)
	fmt.Printf("serial schedule:     %v (transfer %v, kernel %v)\n",
		res.SerialTime, res.TransferTime, res.KernelTime)
	fmt.Printf("overlapped schedule: %v\n", res.OverlappedTime)
	fmt.Printf("overlap speedup:     %.2fx\n", res.Speedup())
	return nil
}
