// Command simgpu exercises the simulated GPU directly: it builds one of
// the library kernels, disassembles it, launches it on a chosen device
// preset, and prints the device-level statistics (cycles, transactions,
// coalescing, bank conflicts, occupancy) that the ATGPU model's metrics
// abstract.
//
// Usage:
//
//	simgpu [-kernel vecadd|reduce|matmul] [-n N] [-device gtx650|tiny] [-disasm]
//	       [--trace out.json --trace-max-events N]
//	       [--workers W] [--fault-rate R --fault-seed S --max-retries K]
//
// With --trace, the run writes one Perfetto trace of the full host
// timeline — transfer occupancy, per-stream activity, kernel spans with
// the device tracer's per-block slices embedded — all on the simulated
// clock. With --workers > 1 only the first replica is traced (replicas
// are identical by construction).
//
// With --fault-rate > 0, deterministic seeded faults are injected into
// transfers and launches; the run recovers via checksum-verified retries,
// watchdog relaunches and SM degradation, and the recovery work is printed.
//
// With --workers > 1, that many identical replicas of the run execute
// concurrently, each on its own device/engine/host (the per-goroutine
// isolation the experiment sweeps use); the first replica's report prints
// exactly as a single run would, followed by the replica totals folded
// with the stats Merge methods. Every replica uses the same seeds, so all
// reports are identical — a quick determinism check for the concurrent
// machinery. Replicas dispatch to a panic-isolated scheduler pool capped
// at the core count; SIGINT/SIGTERM skips replicas that have not started
// yet, still prints the first completed replica's report and the merged
// stats over the completed ones, and exits nonzero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/faults"
	"atgpu/internal/kernel"
	"atgpu/internal/mem"
	"atgpu/internal/obs"
	"atgpu/internal/sched"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

func main() {
	kname := flag.String("kernel", "vecadd", "kernel: vecadd, reduce, matmul")
	n := flag.Int("n", 4096, "input size")
	device := flag.String("device", "gtx650", "device preset: gtx650, gtx1080, k40, tiny")
	disasm := flag.Bool("disasm", false, "print kernel disassembly")
	traceOut := flag.String("trace", "", "write a Perfetto trace of the full host timeline (transfers, streams, kernels, per-block device slices) to this file")
	traceMaxEvents := flag.Int("trace-max-events", 0, "cap on recorded trace events, host and device each (0 = default 1048576)")
	pipeline := flag.Bool("pipeline", false, "run the chunked two-stream pipelined variant (overlaps transfer and compute)")
	chunks := flag.Int("chunks", 4, "pipeline: chunk (matmul band) count")
	workers := flag.Int("workers", 1, "concurrent identical replicas, each on its own device (0 = GOMAXPROCS)")
	faultRate := flag.Float64("fault-rate", 0, "fault injection probability in [0,1]; 0 disables")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed (same seed replays the same faults)")
	maxRetries := flag.Int("max-retries", 0, "transfer retry budget override (0 = default)")
	lintFlag := flag.String("lint", "", "static-analysis pre-flight on every launch: off, warn, or error (error refuses launches with error-severity findings)")
	flag.Parse()

	lint, err := analyze.ParseMode(*lintFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simgpu:", err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancels a multi-replica run between replicas; the
	// completed replicas' report and merged stats still print before the
	// nonzero exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *kname, *n, *device, *disasm, *traceOut, *traceMaxEvents, *pipeline, *chunks, *workers, *faultRate, *faultSeed, *maxRetries, lint); err != nil {
		fmt.Fprintln(os.Stderr, "simgpu:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, kname string, n int, device string, disasm bool, traceOut string, traceMaxEvents int, pipeline bool, chunks, workers int, faultRate float64, faultSeed int64, maxRetries int, lint analyze.Mode) error {
	if workers < 0 {
		return fmt.Errorf("negative workers %d", workers)
	}
	if pipeline && chunks <= 0 {
		return fmt.Errorf("non-positive chunks %d", chunks)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if faultRate < 0 || faultRate > 1 {
		return fmt.Errorf("fault rate %v outside [0,1]", faultRate)
	}
	if maxRetries < 0 {
		return fmt.Errorf("negative max retries %d", maxRetries)
	}
	if traceMaxEvents < 0 {
		return fmt.Errorf("negative trace-max-events %d", traceMaxEvents)
	}
	cfg, err := simgpu.Preset(device)
	if err != nil {
		return err
	}

	// Size global memory to the problem. Pipelined variants allocate
	// per-stream chunk buffer sets instead of whole-input buffers.
	need := 4*n + 4*n + 4*cfg.WarpWidth
	if kname == "matmul" {
		need = 4*n*n + 4*cfg.WarpWidth
	}
	if pipeline {
		var words int
		var err error
		switch kname {
		case "vecadd":
			words, err = algorithms.PipelinedVecAdd{N: n, Chunks: chunks, Streams: 2}.GlobalWords(cfg.WarpWidth)
		case "reduce":
			words, err = algorithms.PipelinedReduce{N: n, Chunks: chunks, Streams: 2}.GlobalWords(cfg.WarpWidth)
		case "matmul":
			words, err = algorithms.PipelinedMatMul{N: n, Chunks: chunks, Streams: 2}.GlobalWords(cfg.WarpWidth)
		default:
			return fmt.Errorf("unknown kernel %q", kname)
		}
		if err != nil {
			return err
		}
		need = words + 4*cfg.WarpWidth
	}
	if need < cfg.GlobalWords {
		cfg.GlobalWords = need
	}

	var tracer *simgpu.Tracer
	if traceOut != "" {
		tracer = &simgpu.Tracer{CaptureMemory: true, MaxEvents: traceMaxEvents}
	}

	// Every replica builds its own device/engine/host and draws inputs
	// from the same seed, so all replicas simulate the identical run.
	replica := func(tr *simgpu.Tracer) (*simgpu.Host, *kernel.Program, error) {
		dev, err := simgpu.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		dev.SetUniformProver(analyze.UniformProver)
		eng, err := transfer.NewEngine(transfer.PCIeGen3x8Link(), transfer.Pinned)
		if err != nil {
			return nil, nil, err
		}
		h, err := simgpu.NewHost(dev, eng, 0)
		if err != nil {
			return nil, nil, err
		}
		if faultRate > 0 {
			inj, err := faults.NewRate(faults.RateConfig{
				Seed:         faultSeed,
				TransferRate: faultRate,
				KernelRate:   faultRate,
			})
			if err != nil {
				return nil, nil, err
			}
			policy := transfer.DefaultRetryPolicy()
			if maxRetries > 0 {
				policy.MaxRetries = maxRetries
			}
			policy.Seed = faultSeed + 1
			if err := eng.SetFaults(inj, policy); err != nil {
				return nil, nil, err
			}
			if err := h.SetFaults(inj, 0, 0); err != nil {
				return nil, nil, err
			}
		}
		if tr != nil {
			h.SetTracer(tr)
			h.SetObs(obs.NewRecorder(traceMaxEvents), nil)
		}
		if lint != analyze.ModeOff {
			h.SetPreLaunch(analyze.Gate(analyze.FromConfig(cfg), nil, lint, os.Stderr))
		}

		rng := rand.New(rand.NewSource(1))
		randWords := func(n int) []mem.Word {
			w := make([]mem.Word, n)
			for i := range w {
				w[i] = mem.Word(rng.Intn(100))
			}
			return w
		}

		var prog *kernel.Program
		switch kname {
		case "vecadd":
			alg := algorithms.VecAdd{N: n}
			if prog, err = alg.Kernel(cfg.WarpWidth, 0, n, 2*n); err != nil {
				return nil, nil, err
			}
			if pipeline {
				p := algorithms.PipelinedVecAdd{N: n, Chunks: chunks, Streams: 2}
				if _, err := p.Run(h, randWords(n), randWords(n)); err != nil {
					return nil, nil, err
				}
			} else if _, err := alg.Run(h, randWords(n), randWords(n)); err != nil {
				return nil, nil, err
			}
		case "reduce":
			alg := algorithms.Reduce{N: n}
			if prog, err = alg.Kernel(cfg.WarpWidth, 0, n, n); err != nil {
				return nil, nil, err
			}
			if pipeline {
				p := algorithms.PipelinedReduce{N: n, Chunks: chunks, Streams: 2}
				if _, err := p.Run(h, randWords(n)); err != nil {
					return nil, nil, err
				}
			} else if _, err := alg.Run(h, randWords(n)); err != nil {
				return nil, nil, err
			}
		case "matmul":
			if n%cfg.WarpWidth != 0 {
				return nil, nil, fmt.Errorf("matmul n=%d must be a multiple of warp width %d", n, cfg.WarpWidth)
			}
			alg := algorithms.MatMul{N: n}
			if prog, err = alg.Kernel(cfg.WarpWidth, 0, n*n, 2*n*n); err != nil {
				return nil, nil, err
			}
			if pipeline {
				p := algorithms.PipelinedMatMul{N: n, Chunks: chunks, Streams: 2}
				if _, err := p.Run(h, randWords(n*n), randWords(n*n)); err != nil {
					return nil, nil, err
				}
			} else if _, err := alg.Run(h, randWords(n*n), randWords(n*n)); err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, fmt.Errorf("unknown kernel %q", kname)
		}
		return h, prog, nil
	}

	hosts := make([]*simgpu.Host, workers)
	progs := make([]*kernel.Program, workers)
	errs := make([]error, workers)
	if workers == 1 {
		hosts[0], progs[0], errs[0] = replica(tracer)
	} else {
		// The shared scheduler gives each replica panic isolation and
		// checks ctx between dispatches, so an interrupt skips replicas
		// that have not started yet. The pool is capped at the core
		// count: beyond it replicas only queue, which is what lets an
		// interrupt skip them.
		pool := workers
		if cores := runtime.GOMAXPROCS(0); pool > cores {
			pool = cores
		}
		errs = sched.Run(ctx, workers, pool, func(w int) error {
			// Only the first replica is traced: replicas are
			// identical, so one timeline is the timeline, and the
			// others stay uninstrumented while running concurrently.
			var tr *simgpu.Tracer
			if w == 0 {
				tr = tracer
			}
			var err error
			hosts[w], progs[w], err = replica(tr)
			return err
		})
	}
	cancelled := false
	for _, err := range errs {
		if errors.Is(err, sched.ErrCancelled) {
			cancelled = true
			continue
		}
		if err != nil {
			return err
		}
	}
	if hosts[0] == nil {
		return fmt.Errorf("interrupted before the first replica completed")
	}

	h, prog := hosts[0], progs[0]
	if disasm {
		fmt.Println(prog.Disassemble())
	}
	rep := h.Report()
	fmt.Printf("device %s  kernel %s  n=%d\n", cfg.Name, prog.Name, n)
	fmt.Printf("kernel time   %v\n", rep.Kernel)
	fmt.Printf("transfer time %v (in %d words / %d txns, out %d words / %d txns)\n",
		rep.Transfer, rep.Transfers.InWords, rep.Transfers.InTransactions,
		rep.Transfers.OutWords, rep.Transfers.OutTransactions)
	fmt.Printf("total time    %v\n", rep.Total)
	if pipeline {
		busy := rep.Kernel + rep.Transfer + rep.Sync
		fmt.Printf("overlap saved %v of %v busy time (chunks=%d, streams=2)\n",
			h.OverlapSaved(), busy, chunks)
	}
	fmt.Println(rep.Stats)
	if rep.Transfers.Faulted() || rep.Resilience.Degraded() {
		fmt.Printf("resilience: %d retries (%d words re-sent, backoff %v), %d corruptions, %d drops, %d stalls\n",
			rep.Transfers.Retries, rep.Transfers.RetransferredWords, rep.Transfers.BackoffTime,
			rep.Transfers.CorruptionsDetected, rep.Transfers.DroppedTransactions, rep.Transfers.StallEvents)
		fmt.Printf("            %d watchdog fires (%v lost), %d relaunches, %d degraded launches, %d failed SMs\n",
			rep.Resilience.WatchdogFires, rep.Resilience.WatchdogTime, rep.Resilience.Relaunches,
			rep.Resilience.DegradedLaunches, rep.Resilience.FailedSMs)
		for _, ev := range h.FaultEvents() {
			fmt.Printf("  fault %s\n", ev)
		}
	}

	if workers > 1 {
		var tf transfer.Stats
		var rs simgpu.ResilienceStats
		identical := true
		completed := 0
		for _, hh := range hosts {
			if hh == nil { // skipped by an interrupt before it started
				continue
			}
			completed++
			r := hh.Report()
			tf.Merge(r.Transfers)
			rs.Merge(r.Resilience)
			if r.Total != rep.Total || r.Transfers != rep.Transfers || r.Resilience != rep.Resilience {
				identical = false
			}
		}
		if cancelled {
			fmt.Printf("replicas: %d of %d completed (interrupted), identical reports: %v\n",
				completed, workers, identical)
		} else {
			fmt.Printf("replicas: %d concurrent, identical reports: %v\n", workers, identical)
		}
		fmt.Printf("merged:   %d words in / %d out across replicas, %d retries, %d watchdog fires\n",
			tf.InWords, tf.OutWords, tf.Retries, rs.WatchdogFires)
	}

	if tracer != nil {
		rep0 := h.SnapshotObs()
		if err := rep0.WriteTraceFile(traceOut); err != nil {
			return err
		}
		fmt.Printf("\n%s", tracer.Summary())
		fmt.Print(tracer.OccupancyTimeline(60))
		fmt.Printf("trace: %d events (host timeline with device block slices) written to %s\n",
			rep0.Trace.Len(), traceOut)
		if rep0.Trace.WasTruncated() {
			fmt.Printf("warning: trace truncated at max-events=%d; raise -trace-max-events\n",
				rep0.Trace.Cap())
		}
	}
	if cancelled {
		return fmt.Errorf("interrupted: partial replica stats flushed: %w", sched.ErrCancelled)
	}
	return nil
}
