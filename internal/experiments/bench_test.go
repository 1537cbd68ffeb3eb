package experiments

import (
	"fmt"
	"runtime"
	"testing"
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
					if pt.ObservedSaving <= 0 {
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
			for i := 0; i < b.N; i++ {
				if _, err := r.RunVecAdd(); err != nil {
					b.Fatal(err)
				}
			}
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
	for i := 0; i < b.N; i++ {
		cold, err := NewRunnerCalibrated(cfg, r.link, r.calib)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cold.RunVecAdd(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepMatMul measures the default matmul sweep at one worker.
// Only its n=256 launch has the 64 blocks memoization needs; the
// scheduled interpreter — shared-memory tiles, warp pick — runs every
// block of the smaller points and 16 of n=256's, and memo replay the
// rest, so this is the bench that sees interpreter work.
func BenchmarkSweepMatMul(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	r, err := NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunMatMul(); err != nil {
			b.Fatal(err)
		}
	}
}
