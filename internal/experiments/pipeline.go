package experiments

import (
	"errors"
	"fmt"

	"atgpu/internal/algorithms"
	"atgpu/internal/core"
	"atgpu/internal/mem"
	"atgpu/internal/obs"
	"atgpu/internal/results"
	"atgpu/internal/simgpu"
)

// Pipelined sweeps compare the sequential-chunked schedule against the
// overlapped multi-stream schedule of the same workload on identical
// inputs, alongside the overlapped-cost model's prediction of both
// (core.GPUCostPipelined). Every point runs two fresh hosts — one with a
// single stream, one with pipelineStreams — so the observed gap is purely
// the schedule, never the inputs or the device.

// pipelineStreams is the stream count of the overlapped schedule: classic
// double buffering. The sequential baseline always uses one stream.
const pipelineStreams = 2

// defaultChunks is the chunk count when Config.Chunks is zero. Four chunks
// is the smallest split where the steady-state of the pipeline dominates
// its fill and drain.
const defaultChunks = 4

// chunks resolves the effective chunk count.
func (c Config) chunks() int {
	if c.Chunks > 0 {
		return c.Chunks
	}
	return defaultChunks
}

// PipelinePoint is one input size's sequential-versus-pipelined outcome:
// the overlapped-cost model's prediction and the two schedules' observed
// halves. Each half is observed like a plain sweep point (observePoint),
// so a schedule that runs out of fault recovery is recorded Failed with
// its counters and fault log, and the sweep goes on.
type PipelinePoint struct {
	// N is the input size (vector length or matrix side).
	N int
	// Chunks and Streams describe the overlapped schedule.
	Chunks, Streams int
	// PredictedSequential and PredictedPipelined are the overlapped-cost
	// model's totals in seconds; PredictedSaving their difference.
	PredictedSequential, PredictedPipelined, PredictedSaving float64
	// Sequential and Pipelined are the one-stream and multi-stream runs'
	// observations: time split, transfer and recovery counters, fault
	// log, kernel stats. A point that panicked or was cancelled carries
	// its failure in Sequential. Their obs reports are folded into Obs.
	Sequential, Pipelined WorkloadPoint
	// Obs is the point's observability report: the sequential run's
	// spans tagged "seq/...", the overlapped run's "pipe/...", so the
	// two schedules sit side by side in one trace (nil unless
	// Config.Obs enables collection).
	Obs *obs.Report
}

// Failed reports whether either schedule died despite the recovery
// machinery, panicked or was cancelled.
func (p PipelinePoint) Failed() bool { return p.Sequential.Failed || p.Pipelined.Failed }

// Err is the first failed schedule's message ("" unless Failed).
func (p PipelinePoint) Err() string {
	if p.Sequential.Failed {
		return p.Sequential.Err
	}
	return p.Pipelined.Err
}

// Degraded reports whether either schedule needed any fault recovery.
func (p PipelinePoint) Degraded() bool { return p.Sequential.Degraded() || p.Pipelined.Degraded() }

// ObservedSaving is the sequential minus the pipelined observed total
// (seconds).
func (p PipelinePoint) ObservedSaving() float64 {
	return p.Sequential.TotalTime - p.Pipelined.TotalTime
}

// ObservedSavingFraction is the observed saving over the sequential total
// (0 when degenerate).
func (p PipelinePoint) ObservedSavingFraction() float64 {
	if p.Sequential.TotalTime <= 0 {
		return 0
	}
	return p.ObservedSaving() / p.Sequential.TotalTime
}

// PredictedSavingFraction is the predicted saving over the predicted
// sequential total (0 when degenerate).
func (p PipelinePoint) PredictedSavingFraction() float64 {
	if p.PredictedSequential <= 0 {
		return 0
	}
	return p.PredictedSaving / p.PredictedSequential
}

// withFailure, report and record make PipelinePoint a sweepPoint.
func (p PipelinePoint) withFailure(f WorkloadPoint) PipelinePoint {
	return PipelinePoint{N: f.N, Sequential: f}
}

func (p PipelinePoint) report() (*obs.Report, int) { return p.Obs, p.N }

// record converts the point into the canonical record shape (payload
// only, no run identity). The transfer and recovery counters of both
// schedules are merged onto the record only when recovery ran, so
// fault-free records keep their shape.
func (p PipelinePoint) record(workload string) results.Record {
	rec := results.Record{
		Kind:     "pipeline",
		Workload: workload,
		N:        p.N,
		Chunks:   p.Chunks,
		Failed:   p.Failed(),
		Err:      p.Err(),
	}
	if p.PredictedSequential != 0 || p.PredictedPipelined != 0 {
		rec.Predicted = &results.Predicted{
			SequentialS: p.PredictedSequential,
			PipelinedS:  p.PredictedPipelined,
			SavingS:     p.PredictedSaving,
		}
	}
	if seq, pipe := p.Sequential.TotalTime, p.Pipelined.TotalTime; seq > 0 || pipe > 0 {
		rec.Observed = &results.Observed{
			SequentialS: seq,
			PipelinedS:  pipe,
			SavingS:     p.ObservedSaving(),
		}
	}
	if p.Degraded() {
		tf, rs := p.Sequential.Transfers, p.Sequential.Resilience
		tf.Merge(p.Pipelined.Transfers)
		rs.Merge(p.Pipelined.Resilience)
		setCounters(&rec, tf, rs)
	}
	if snap := p.Obs.Snapshot(); !snap.Empty() {
		rec.Obs = &snap
	}
	return rec
}

// PipelineData is one workload's pipelined sweep.
type PipelineData struct {
	// Workload names the pipelined algorithm.
	Workload string
	// Points holds one entry per input size, ascending; under fault
	// injection some may be Failed.
	Points []PipelinePoint
	// Records holds the canonical result records, one per point in
	// point order, stamped with the run identity.
	Records []results.Record
	// Obs folds every point's report in point order, each tagged
	// "<workload> n=<N>" (nil unless Config.Obs enables collection).
	Obs *obs.Report
}

// FailedPoints counts the points with a failed schedule.
func (d *PipelineData) FailedPoints() int { return countFailed(d.Points, PipelinePoint.Failed) }

// SweepPipelined sweeps the named workload's chunked variant, sequential
// versus overlapped, over the workload's sweep sizes. Records are tagged
// "<workload>-pipelined".
func (r *Runner) SweepPipelined(workload string) (*PipelineData, error) {
	w, err := Lookup(workload)
	if err != nil {
		return nil, err
	}
	return r.sweepPipelined(w, w.sweepSizes(r.cfg), r.cfg.chunks())
}

// RunPipelined runs the named workload's size-n pipelined point as a
// one-point SweepPipelined.
func (r *Runner) RunPipelined(workload string, n int) (PipelinePoint, error) {
	w, err := Lookup(workload)
	if err != nil {
		return PipelinePoint{}, err
	}
	return r.runPipelined(w, n, r.cfg.chunks())
}

// runPipelined is w's size-n pipelined point in chunks chunks.
func (r *Runner) runPipelined(w *Workload, n, chunks int) (PipelinePoint, error) {
	data, err := r.sweepPipelined(w, []int{n}, chunks)
	if err != nil {
		return PipelinePoint{}, err
	}
	return data.Points[0], nil
}

// RunOutOfCore runs the out-of-core reduction of n words once per chunk
// length in chunkWords (future work §V): the reduce split in ⌈n/chunk⌉
// chunks, serially on one stream and overlapped on two, as a pipelined
// point. The device holds only the chunk buffers, never the whole input.
func (r *Runner) RunOutOfCore(n int, chunkWords []int) ([]PipelinePoint, error) {
	w, err := Lookup("reduce")
	if err != nil {
		return nil, err
	}
	points := make([]PipelinePoint, len(chunkWords))
	for i, chunk := range chunkWords {
		if chunk <= 0 {
			return nil, fmt.Errorf("experiments: out-of-core: %w: chunk=%d", algorithms.ErrBadSize, chunk)
		}
		if points[i], err = r.runPipelined(w, n, ceilDiv(n, chunk)); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// PredictPipelined prices the named workload's size-n chunked variant,
// at the configured chunk count, with the overlapped-cost model — the
// model half of a pipelined point.
func (r *Runner) PredictPipelined(workload string, n int) (core.PipelinedCost, error) {
	w, err := Lookup(workload)
	if err != nil {
		return core.PipelinedCost{}, err
	}
	return r.predictPipelined(w, n, r.cfg.chunks())
}

func (r *Runner) predictPipelined(w *Workload, n, chunks int) (core.PipelinedCost, error) {
	analysis, err := w.AnalyzePipelined(n, chunks, r.cfg.Device)
	if err != nil {
		return core.PipelinedCost{}, fmt.Errorf("analyze: %w", err)
	}
	pc, err := core.GPUCostPipelined(analysis, r.params)
	if err != nil {
		return core.PipelinedCost{}, fmt.Errorf("predict: %w", err)
	}
	return pc, nil
}

// sweepPipelined runs w's pipelined points over sizes in chunks chunks.
// Each point draws its inputs once and observes both schedules on them,
// each on a fresh host sized to that schedule's footprint.
func (r *Runner) sweepPipelined(w *Workload, sizes []int, chunks int) (*PipelineData, error) {
	if w.split == nil {
		return nil, fmt.Errorf("experiments: %s has no pipelined variant", w.Name)
	}
	name := w.Name + "-pipelined"
	globalWords := r.sweepGlobalWords(sizes, func(n int) int {
		// The overlapped plan holds the most: a buffer set per stream. A
		// bad plan fails its point when the point prices it.
		plan, err := w.plan(n, chunks, pipelineStreams, r.cfg.Device)
		if err != nil {
			return 0
		}
		words, _ := plan.GlobalWords()
		return words
	})
	inputWords := w.sweepInputWords(sizes)
	points, recs, rep, err := runSweep(r, name, sizes, func(idx, n int) (PipelinePoint, error) {
		pt := PipelinePoint{N: n, Chunks: chunks, Streams: pipelineStreams}
		pc, err := r.predictPipelined(w, n, chunks)
		if err != nil {
			return pt, fmt.Errorf("%s n=%d: %w", name, n, err)
		}
		pt.PredictedSequential = pc.Sequential
		pt.PredictedPipelined = pc.Pipelined
		pt.PredictedSaving = pc.Saving()

		s := r.scratch.get(globalWords, inputWords)
		defer r.scratch.put(s)
		s.rng.seed(r.inputSeed(name, n, idx))
		in := w.splitInputs(n, s)
		for _, sc := range [...]struct {
			half     *WorkloadPoint
			streams  int
			schedule string
		}{{&pt.Sequential, 1, "sequential"}, {&pt.Pipelined, pt.Streams, "pipelined"}} {
			sc.half.N = n
			err := r.observePoint(sc.half, func() (*simgpu.Host, error) {
				h, err := r.runPlan(w, s, in, n, idx, chunks, sc.streams)
				if err != nil {
					err = fmt.Errorf("%s n=%d %s: %w", name, n, sc.schedule, err)
				}
				return h, err
			})
			if err != nil {
				return pt, err
			}
		}
		if seq, pipe := pt.Sequential.Obs, pt.Pipelined.Obs; seq != nil || pipe != nil {
			pt.Obs = r.newSweepReport()
			pt.Obs.Merge(seq, "seq")
			pt.Obs.Merge(pipe, "pipe")
			pt.Sequential.Obs, pt.Pipelined.Obs = nil, nil
		}
		return pt, nil
	})
	if err != nil && !errors.Is(err, ErrCancelled) {
		return nil, err
	}
	return &PipelineData{Workload: name, Points: points, Records: recs, Obs: rep}, err
}

// runPlan runs w's size-n split in chunks chunks on streams streams over
// the inputs in, on a fresh host in s sized to the plan, and verifies
// the output.
func (r *Runner) runPlan(w *Workload, s *pointScratch, in [][]mem.Word, n, idx, chunks, streams int) (*simgpu.Host, error) {
	plan, err := w.plan(n, chunks, streams, r.cfg.Device)
	if err != nil {
		return nil, err
	}
	words, err := plan.GlobalWords()
	if err != nil {
		return nil, err
	}
	h, err := r.newHostIn(s, words, w.Name+"-pipelined", n, idx)
	if err != nil {
		return nil, err
	}
	out := s.result(plan.OutWords())
	combined, err := plan.Run(h, out, in...)
	if err != nil {
		return h, err
	}
	return h, w.splitCheck(n, s, in, out, combined)
}
