package experiments

import (
	"fmt"

	"atgpu/internal/core"
	"atgpu/internal/obs"
	"atgpu/internal/results"
	"atgpu/internal/sched"
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

// PipelinePoint is one input size's sequential-versus-pipelined outcome.
type PipelinePoint struct {
	// N is the input size (vector length or matrix side).
	N int
	// Chunks and Streams describe the overlapped schedule.
	Chunks, Streams int
	// SequentialTime and PipelinedTime are the observed simulated totals
	// in seconds for the one-stream and multi-stream runs.
	SequentialTime, PipelinedTime float64
	// ObservedSaving is SequentialTime − PipelinedTime (seconds).
	ObservedSaving float64
	// PredictedSequential and PredictedPipelined are the overlapped-cost
	// model's totals in seconds; PredictedSaving their difference.
	PredictedSequential, PredictedPipelined, PredictedSaving float64
	// Obs is the point's observability report: the sequential run's
	// spans tagged "seq/...", the overlapped run's "pipe/...", so the
	// two schedules sit side by side in one trace (nil unless
	// Config.Obs enables collection).
	Obs *obs.Report

	// Failed marks a point that panicked or was cancelled before it
	// started (Config.Context); its timings are zero and Err explains.
	Failed bool
	// Err is the failure message when Failed.
	Err string
}

// ObservedSavingFraction is the observed saving over the sequential total
// (0 when degenerate).
func (p PipelinePoint) ObservedSavingFraction() float64 {
	if p.SequentialTime <= 0 {
		return 0
	}
	return p.ObservedSaving / p.SequentialTime
}

// PredictedSavingFraction is the predicted saving over the predicted
// sequential total (0 when degenerate).
func (p PipelinePoint) PredictedSavingFraction() float64 {
	if p.PredictedSequential <= 0 {
		return 0
	}
	return p.PredictedSaving / p.PredictedSequential
}

// PipelineData is one workload's pipelined sweep.
type PipelineData struct {
	// Workload names the pipelined algorithm.
	Workload string
	// Points holds one entry per input size, ascending.
	Points []PipelinePoint
	// Records holds the canonical result records, one per point in
	// point order, stamped with the run identity.
	Records []results.Record
	// Obs folds every point's report in point order, each tagged
	// "<workload> n=<N>" (nil unless Config.Obs enables collection).
	Obs *obs.Report
}

// PipelinePointRecord converts one pipeline point into the canonical
// record shape (payload only, no run identity).
func PipelinePointRecord(workload string, pt PipelinePoint) results.Record {
	rec := results.Record{
		Kind:     "pipeline",
		Workload: workload,
		N:        pt.N,
		Chunks:   pt.Chunks,
		Failed:   pt.Failed,
		Err:      pt.Err,
	}
	if pt.PredictedSequential != 0 || pt.PredictedPipelined != 0 {
		rec.Predicted = &results.Predicted{
			SequentialS: pt.PredictedSequential,
			PipelinedS:  pt.PredictedPipelined,
			SavingS:     pt.PredictedSaving,
		}
	}
	if pt.SequentialTime > 0 || pt.PipelinedTime > 0 {
		rec.Observed = &results.Observed{
			SequentialS: pt.SequentialTime,
			PipelinedS:  pt.PipelinedTime,
			SavingS:     pt.ObservedSaving,
		}
	}
	if snap := pt.Obs.Snapshot(); !snap.Empty() {
		rec.Obs = &snap
	}
	return rec
}

// runPipelineSweep mirrors runSweep for pipeline points: points are
// self-contained, so the assembly is byte-identical for any worker count.
// Panicking points are recorded as Failed with the stack in Err;
// cancellation returns the partial data with ErrCancelled.
func (r *Runner) runPipelineSweep(workload string, sizes []int, point func(idx, n int) (PipelinePoint, error)) (*PipelineData, error) {
	data := &PipelineData{Workload: workload, Points: make([]PipelinePoint, len(sizes))}
	errs := sched.RunOpts(r.cfg.ctx(), len(sizes),
		sched.Options{Workers: r.cfg.workers(), Observer: r.cfg.SchedObserver},
		func(i int) error {
			pt, err := point(i, sizes[i])
			if err != nil {
				return err
			}
			data.Points[i] = pt
			return nil
		})
	cancelled, err := absorbSweepErrs(errs, func(i int, failed WorkloadPoint) {
		data.Points[i] = PipelinePoint{N: sizes[i], Failed: true, Err: failed.Err}
	})
	if err != nil {
		return nil, err
	}
	data.Records = make([]results.Record, len(data.Points))
	for i := range data.Points {
		data.Records[i] = PipelinePointRecord(workload, data.Points[i])
		r.stampIdentity(&data.Records[i])
	}
	data.Obs = r.foldObs(workload, len(data.Points), func(i int) (*obs.Report, int) {
		return data.Points[i].Obs, data.Points[i].N
	})
	if cancelled {
		return data, ErrCancelled
	}
	return data, nil
}

// SweepPipelined sweeps the named workload's chunked variant, sequential
// versus overlapped, over the workload's sweep sizes. Records are tagged
// "<workload>-pipelined".
func (r *Runner) SweepPipelined(workload string) (*PipelineData, error) {
	w, err := Lookup(workload)
	if err != nil {
		return nil, err
	}
	pv := w.pipelined
	if pv == nil {
		return nil, fmt.Errorf("experiments: %s has no pipelined variant", w.Name)
	}
	name := w.Name + "-pipelined"
	chunks := r.cfg.chunks()
	sizes := w.sweepSizes(r.cfg)
	globalWords := r.sweepGlobalWords(sizes, func(n int) int {
		most := 0
		for _, streams := range []int{1, pipelineStreams} {
			if g, err := pv.plan(n, chunks, streams).GlobalWords(r.cfg.Device.WarpWidth); err == nil {
				most = max(most, g)
			}
		}
		return most
	})
	inputWords := w.sweepInputWords(sizes)
	return r.runPipelineSweep(name, sizes, func(idx, n int) (PipelinePoint, error) {
		pt := PipelinePoint{N: n, Chunks: chunks, Streams: pipelineStreams}
		analysis, err := w.AnalyzePipelined(n, chunks, r.cfg.Device)
		if err != nil {
			return pt, fmt.Errorf("%s n=%d: analyze: %w", name, n, err)
		}
		pc, err := core.GPUCostPipelined(analysis, r.params)
		if err != nil {
			return pt, fmt.Errorf("%s n=%d: predict: %w", name, n, err)
		}
		pt.PredictedSequential = pc.Sequential
		pt.PredictedPipelined = pc.Pipelined
		pt.PredictedSaving = pc.Saving()

		s := r.scratch.get(globalWords, inputWords)
		defer r.scratch.put(s)
		s.rng.seed(r.inputSeed(name, n, idx))
		run := pv.prepare(n, s)
		observe := func(streams int, tag string) (float64, error) {
			words, err := pv.plan(n, chunks, streams).GlobalWords(r.cfg.Device.WarpWidth)
			if err != nil {
				return 0, err
			}
			h, err := r.newHostIn(s, words, name, n, idx)
			if err != nil {
				return 0, err
			}
			if err := run(h, chunks, streams); err != nil {
				return 0, err
			}
			if rep := h.SnapshotObs(); rep != nil {
				if pt.Obs == nil {
					pt.Obs = r.newSweepReport()
				}
				pt.Obs.Merge(rep, tag)
			}
			return h.Report().Total.Seconds(), nil
		}
		seq, err := observe(1, "seq")
		if err != nil {
			return pt, fmt.Errorf("%s n=%d sequential: %w", name, n, err)
		}
		pipe, err := observe(pt.Streams, "pipe")
		if err != nil {
			return pt, fmt.Errorf("%s n=%d pipelined: %w", name, n, err)
		}
		pt.SequentialTime = seq
		pt.PipelinedTime = pipe
		pt.ObservedSaving = seq - pipe
		return pt, nil
	})
}
