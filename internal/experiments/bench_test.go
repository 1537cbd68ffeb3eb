package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"atgpu/internal/simgpu"
)

// BenchmarkPipelineOverlap measures the pipelined vecadd sweep — every
// point simulates both the sequential-chunked and the overlapped
// two-stream schedule — at increasing chunk counts. CI uploads the numbers
// as BENCH_pipeline.json.
func BenchmarkPipelineOverlap(b *testing.B) {
	for _, chunks := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = 1
			cfg.Chunks = chunks
			r, err := NewRunner(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := r.SweepPipelined("vecadd")
				if err != nil {
					b.Fatal(err)
				}
				for _, pt := range data.Points {
					if pt.ObservedSaving() <= 0 {
						b.Fatalf("n=%d chunks=%d: no overlap saving", pt.N, chunks)
					}
				}
			}
		})
	}
}

// BenchmarkAtomics measures the end-to-end atomic-workload sweeps —
// contended and privatized histogram, compaction, top-k, Monte Carlo —
// plus the histogram contention study, each point running the full
// predict/simulate/verify pipeline. The sizes are the short test ladder so
// a CI run with -benchtime 2x stays in seconds; CI uploads the numbers as
// BENCH_atomics.json and gates them against the committed trajectory.
func BenchmarkAtomics(b *testing.B) {
	cfg := atomicsTestConfig()
	cfg.Workers = 1
	r, err := NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	checked := func(workload string) func() error {
		return func() error {
			data, err := r.Sweep(workload)
			if err != nil {
				return err
			}
			if n := data.FailedPoints(); n != 0 {
				return fmt.Errorf("%s: %d failed points", data.Workload, n)
			}
			return nil
		}
	}
	subs := []struct {
		name string
		fn   func() error
	}{
		{"histogram", checked("histogram")},
		{"histogram-priv", checked("histogram-priv")},
		{"compact", checked("compact")},
		{"topk", checked("topk")},
		{"montecarlo", checked("montecarlo")},
		{"contention-study", func() error {
			study, err := r.RunHistogramContention(1<<12, nil)
			if err != nil {
				return err
			}
			if len(study.Points) == 0 {
				return fmt.Errorf("contention study produced no points")
			}
			return nil
		}},
	}
	for _, sub := range subs {
		b.Run(sub.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sub.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepWorkers measures the wall time and allocation of the
// default scaled vecadd sweep (10 sizes, n = 10⁵ … 10⁶) at increasing
// worker counts. Points are embarrassingly parallel (each builds its own
// device/engine/host), so on a multi-core machine wall time should fall
// near-linearly until workers exceed cores; CI uploads the numbers as
// BENCH_sweep.json.
//
// Calibration runs once per worker count, outside the timed loop.
func BenchmarkSweepWorkers(b *testing.B) {
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = workers
			r, err := NewRunner(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var work sweepWork
			for i := 0; i < b.N; i++ {
				d, err := r.RunVecAdd()
				if err != nil {
					b.Fatal(err)
				}
				work.add(d)
			}
			work.report(b)
		})
	}
}

// BenchmarkSweepCold measures the same vecadd sweep at one worker on a new
// Runner per op, the way an atgpud job or a one-shot CLI sweep runs it:
// BenchmarkSweepWorkers repeats sweeps on one Runner, whose point scratch
// buffers outlive each sweep. Calibration runs once, outside the timed
// loop, and every op's Runner reuses it.
func BenchmarkSweepCold(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	r, err := NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var work sweepWork
	for i := 0; i < b.N; i++ {
		cold, err := NewRunnerCalibrated(cfg, r.link, r.calib)
		if err != nil {
			b.Fatal(err)
		}
		d, err := cold.RunVecAdd()
		if err != nil {
			b.Fatal(err)
		}
		work.add(d)
	}
	work.report(b)
}

// BenchmarkSweepMatMul measures the default matmul sweep at one worker.
// Memoization engages on launches of three waves or more (GTX650 holds a
// wave of 4 matmul blocks), so its n=128 and n=256 launches memoize: the
// interpreter runs block 0 of each alone, the scheduler times them over
// cursor warps, and memo replay moves the other blocks' data. The
// scheduled interpreter — shared-memory tiles, warp pick — still runs
// every block of the n=32 and n=64 points, so this is the bench that sees
// interpreter work.
func BenchmarkSweepMatMul(b *testing.B) {
	benchSweep(b, "matmul")
}

// BenchmarkSweepReduce measures the default reduce sweep (Figure 4,
// n = 2¹⁶…2²²) at one worker. Every round memoizes but the last few, so
// replay moves every block's data but block 0's, and its tree levels are
// prefix-masked shared accesses, which replay gathers lane by lane into
// the batch's shared slab.
func BenchmarkSweepReduce(b *testing.B) {
	benchSweep(b, "reduce")
}

// benchSweep times one default sweep of workload per op at one worker;
// calibration runs once, outside the timed loop.
func benchSweep(b *testing.B, workload string) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	r, err := NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var work sweepWork
	for i := 0; i < b.N; i++ {
		d, err := r.Sweep(workload)
		if err != nil {
			b.Fatal(err)
		}
		work.add(d)
	}
	work.report(b)
}

// sweepWork sums the simulated work of a benchmark's sweeps, so that the
// bench output shows the work the time bought is unchanged.
type sweepWork struct {
	ops                              int
	cycles, instrs, elided, launches int64
}

// add folds in the points of one sweep.
func (s *sweepWork) add(d *WorkloadData) {
	s.ops++
	for _, pt := range d.Points {
		s.cycles += pt.Stats.Cycles
		s.instrs += pt.Stats.InstructionsIssued
		s.elided += pt.MemoElided
		s.launches += int64(pt.Launches)
	}
}

// report reports the sums per sweep: simulated cycles, warp-instructions
// issued, blocks whose timing memoization skipped, and kernel launches.
func (s *sweepWork) report(b *testing.B) {
	if s.ops == 0 {
		return
	}
	n := float64(s.ops)
	b.ReportMetric(float64(s.cycles)/n, "sim-cycles/op")
	b.ReportMetric(float64(s.instrs)/n, "warp-instrs/op")
	b.ReportMetric(float64(s.elided)/n, "memo-elided/op")
	b.ReportMetric(float64(s.launches)/n, "launches/op")
}

// BenchmarkLint measures the static analysis of one kernel launch on the
// GTX650 preset: service-mix's two lint shapes (reduce n=4096, matmul
// n=64) and vecadd n=4096. Run with -benchmem; CI uploads the numbers as
// BENCH_lint.json.
func BenchmarkLint(b *testing.B) {
	dev := simgpu.GTX650()
	cp := lintPinCost(dev)
	for _, c := range []struct {
		workload string
		n        int
	}{{"reduce", 4096}, {"matmul", 64}, {"vecadd", 4096}} {
		w, err := Lookup(c.workload)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/n=%d", c.workload, c.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Lint(c.n, dev, cp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
