// Package results is the canonical result model every producer in the
// repo emits into: experiments sweep/pipeline points, service job
// results, bench harness lines and observability snapshots all convert
// to the one Record shape, and an append-only JSONL store persists them
// as a queryable trajectory across runs.
//
// Determinism contract: a Record body contains no wall-clock reads —
// identical runs marshal to byte-identical JSON lines. Run metadata
// that legitimately varies between identical runs (save time, host
// name, wall duration) lives in the separate Env envelope, which the
// store excludes from every identity and comparison key. This package
// is under the repo's notime vet pass; callers in cmd/ stamp the Env.
package results

import (
	"fmt"

	"atgpu/internal/obs"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// Machine is the full simulated-machine identity of a record: the
// device preset (every config field, so a preset revision changes the
// identity), the transfer scheme and the synchronisation charge σ.
type Machine struct {
	Device     simgpu.Config `json:"device"`
	Scheme     string        `json:"scheme,omitempty"`
	SyncCostUs int64         `json:"sync_cost_us,omitempty"`
}

// FaultPlan is the deterministic fault-injection plan a record ran
// under (nil on the record means fault-free).
type FaultPlan struct {
	Rate       float64 `json:"rate"`
	Seed       int64   `json:"seed,omitempty"`
	MaxRetries int     `json:"max_retries,omitempty"`
	WatchdogUs int64   `json:"watchdog_us,omitempty"`
}

// Predicted carries the model-side costs: Expression (1)/(2) for plain
// points, the overlapped-cost split for pipelined ones. All seconds.
type Predicted struct {
	// ATGPUCost is the GPU-cost (Expression 2); SWGPUCost the baseline
	// model's cost; Delta the predicted transfer share Δ_T.
	ATGPUCost float64 `json:"atgpu_cost_s,omitempty"`
	SWGPUCost float64 `json:"swgpu_cost_s,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	// SequentialS, PipelinedS and SavingS are the overlapped-cost
	// model's totals for pipeline records.
	SequentialS float64 `json:"sequential_s,omitempty"`
	PipelinedS  float64 `json:"pipelined_s,omitempty"`
	SavingS     float64 `json:"saving_s,omitempty"`
}

// Observed carries the simulator-side timings. All seconds; Delta is
// the observed transfer share Δ_E.
type Observed struct {
	TotalS    float64 `json:"total_s,omitempty"`
	KernelS   float64 `json:"kernel_s,omitempty"`
	TransferS float64 `json:"transfer_s,omitempty"`
	SyncS     float64 `json:"sync_s,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	// SequentialS, PipelinedS and SavingS are the two observed schedule
	// totals of a pipeline record and their difference.
	SequentialS float64 `json:"sequential_s,omitempty"`
	PipelinedS  float64 `json:"pipelined_s,omitempty"`
	SavingS     float64 `json:"saving_s,omitempty"`
}

// Bench carries one benchmark measurement (kind "bench"); the record's
// Workload holds the benchmark name.
type Bench struct {
	Procs int     `json:"procs,omitempty"`
	Runs  int64   `json:"runs"`
	NsOp  float64 `json:"ns_per_op"`
	// BytesOp and AllocsOp are pointers so a reported zero (the
	// allocation-free disabled observability path) survives in the JSON
	// while benches without -benchmem omit the fields entirely.
	BytesOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsOp *int64   `json:"allocs_per_op,omitempty"`
	// Allowance, when > 0, overrides the gate's regression threshold
	// for this benchmark — noisy service latencies carry a looser limit
	// than the tightly repeatable simulator benches in one trajectory.
	Allowance float64 `json:"allowance,omitempty"`
}

// Record is the canonical result row. Field order is the JSON key
// order (encoding/json marshals structs in declaration order), so two
// identical runs produce byte-identical lines.
type Record struct {
	// Kind names the producer: "sweep", "pipeline", "run", "analyze",
	// "bench".
	Kind string `json:"kind"`
	// Run is the caller-chosen run label, used to select a run's
	// records for diffing. Excluded from the identity key.
	Run string `json:"run,omitempty"`
	// Workload is the algorithm, or the benchmark name for kind
	// "bench".
	Workload string `json:"workload,omitempty"`
	// N is the input size; Seed the input-generator seed; Chunks the
	// pipeline chunk count; Workers the sweep's configured worker count
	// (identity of the run, not of the result — outputs are
	// byte-identical at any worker count).
	N       int   `json:"n,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	Chunks  int   `json:"chunks,omitempty"`
	Workers int   `json:"workers,omitempty"`
	// Git is the producing build's revision in `git describe --always
	// --dirty` form (BuildStamp; best effort, empty when unavailable).
	Git string `json:"git,omitempty"`

	// Machine is the simulated machine (nil for bench records).
	Machine *Machine `json:"machine,omitempty"`
	// Faults is the fault plan (nil = fault-free).
	Faults *FaultPlan `json:"faults,omitempty"`

	// Predicted and Observed are the two sides of the paper's study.
	Predicted *Predicted `json:"predicted,omitempty"`
	Observed  *Observed  `json:"observed,omitempty"`

	// Transfers, Resilience and Kernel carry the run's full engine,
	// host-recovery and device counters (nil when all zero).
	Transfers  *transfer.Stats         `json:"transfers,omitempty"`
	Resilience *simgpu.ResilienceStats `json:"resilience,omitempty"`
	Kernel     *simgpu.KernelStats     `json:"kernel,omitempty"`

	// Bench is the measurement of a "bench" record.
	Bench *Bench `json:"bench,omitempty"`

	// Obs is the run's metrics snapshot (nil unless collection was on).
	Obs *obs.Snapshot `json:"obs,omitempty"`

	// Failed marks a point that exhausted fault recovery; Err explains.
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"err,omitempty"`
}

// Key is the record's identity: everything that determines which other
// records it is comparable against. Run labels, git stamps, worker
// counts and the Env envelope are deliberately excluded — the same
// logical measurement from two runs (or two commits) must share a key
// so diffs align.
func (r Record) Key() string { return r.key(false) }

// CompareKey is Key with the machine identity blanked, aligning the
// same measurement across two device presets.
func (r Record) CompareKey() string { return r.key(true) }

func (r Record) key(ignoreMachine bool) string {
	dev, scheme, sync := "", "", int64(0)
	if r.Machine != nil && !ignoreMachine {
		dev, scheme, sync = r.Machine.Device.Name, r.Machine.Scheme, r.Machine.SyncCostUs
	}
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d|%d|%d",
		r.Kind, r.Workload, dev, scheme, sync, r.N, r.Seed, r.Chunks)
}

// Metric returns the record's headline scalar and its unit: ns/op for
// benches, the pipelined total for pipeline records, the observed
// total for observed points, and the predicted GPU-cost for
// model-only records. ok is false when the record carries none.
func (r Record) Metric() (v float64, unit string, ok bool) {
	switch {
	case r.Bench != nil:
		return r.Bench.NsOp, "ns/op", true
	case r.Observed != nil && r.Observed.PipelinedS > 0:
		return r.Observed.PipelinedS, "s", true
	case r.Observed != nil && r.Observed.TotalS > 0:
		return r.Observed.TotalS, "s", true
	case r.Predicted != nil && r.Predicted.PipelinedS > 0:
		return r.Predicted.PipelinedS, "s", true
	case r.Predicted != nil && r.Predicted.ATGPUCost > 0:
		return r.Predicted.ATGPUCost, "s", true
	}
	return 0, "", false
}

// Env is the run-metadata envelope: the fields that legitimately vary
// between two identical runs. It is stored beside the record, never
// inside it, and every identity/diff key ignores it. Callers in cmd/
// stamp it (this package is under the notime vet pass and cannot).
type Env struct {
	// SavedUnix is the append wall time in Unix seconds.
	SavedUnix int64 `json:"saved_unix,omitempty"`
	// Host is the producing machine's hostname.
	Host string `json:"host,omitempty"`
	// WallMs is the run's wall-clock duration in milliseconds.
	WallMs float64 `json:"wall_ms,omitempty"`
	// Note is free-form (the service stores the job ID here).
	Note string `json:"note,omitempty"`
}

// Entry is one stored line: the deterministic record body plus its
// optional envelope.
type Entry struct {
	Record Record `json:"record"`
	Env    *Env   `json:"env,omitempty"`
}

// Aggregate is the Merge-based fold of a record slice's engine and
// host counters — the single aggregation path Summarise, the sweep
// assembly and the figure writers all share.
type Aggregate struct {
	Transfers  transfer.Stats
	Resilience simgpu.ResilienceStats
	// Failed counts records that exhausted fault recovery.
	Failed int
}

// Fold merges every record's transfer and resilience counters in
// order (failed records included — their recovery work counts).
func Fold(recs []Record) Aggregate {
	var a Aggregate
	for i := range recs {
		if recs[i].Transfers != nil {
			a.Transfers.Merge(*recs[i].Transfers)
		}
		if recs[i].Resilience != nil {
			a.Resilience.Merge(*recs[i].Resilience)
		}
		if recs[i].Failed {
			a.Failed++
		}
	}
	return a
}

// Successful returns the non-failed records, preserving order.
func Successful(recs []Record) []Record {
	ok := make([]Record, 0, len(recs))
	for _, r := range recs {
		if !r.Failed {
			ok = append(ok, r)
		}
	}
	return ok
}

// Sizes returns the input sizes of the successful records as the
// figure x vector.
func Sizes(recs []Record) []float64 {
	pts := Successful(recs)
	xs := make([]float64, len(pts))
	for i, r := range pts {
		xs[i] = float64(r.N)
	}
	return xs
}

// Column extracts one metric across the successful records, aligned
// with Sizes.
func Column(recs []Record, f func(Record) float64) []float64 {
	pts := Successful(recs)
	ys := make([]float64, len(pts))
	for i, r := range pts {
		ys[i] = f(r)
	}
	return ys
}
