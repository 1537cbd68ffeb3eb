package simgpu

import (
	"errors"
	"fmt"
	"time"

	"atgpu/internal/faults"
	"atgpu/internal/kernel"
	"atgpu/internal/mem"
	"atgpu/internal/obs"
	"atgpu/internal/timeline"
	"atgpu/internal/transfer"
)

// DefaultWatchdog is the kernel watchdog timeout used when SetFaults is
// given zero: generous against every simulated kernel in the suite while
// keeping a hung sweep point cheap.
const DefaultWatchdog = 10 * time.Millisecond

// DefaultMaxRelaunches bounds watchdog-triggered kernel relaunches.
const DefaultMaxRelaunches = 3

// ErrWatchdogExhausted is returned when a kernel still hangs after the
// host's full relaunch budget.
var ErrWatchdogExhausted = errors.New("simgpu: watchdog relaunch budget exhausted")

// ResilienceStats counts the host's fault-recovery work. All fields stay
// zero without an injector attached.
type ResilienceStats struct {
	// Relaunches counts watchdog-triggered kernel relaunches.
	Relaunches int
	// WatchdogFires counts hung launches detected.
	WatchdogFires int
	// WatchdogTime is the simulated time lost to hung launches.
	WatchdogTime time.Duration
	// DegradedLaunches counts launches run with at least one failed SM.
	DegradedLaunches int
	// FailedSMs counts multiprocessors taken out of service.
	FailedSMs int
}

// Degraded reports whether any fault-recovery work happened.
func (r ResilienceStats) Degraded() bool {
	return r.Relaunches > 0 || r.WatchdogFires > 0 || r.DegradedLaunches > 0 || r.FailedSMs > 0
}

// Merge folds other into r, for aggregating hosts across sweeps.
func (r *ResilienceStats) Merge(other ResilienceStats) {
	r.Relaunches += other.Relaunches
	r.WatchdogFires += other.WatchdogFires
	r.WatchdogTime += other.WatchdogTime
	r.DegradedLaunches += other.DegradedLaunches
	r.FailedSMs += other.FailedSMs
}

// Host drives the device through the ATGPU round structure on a shared
// simulated timeline: "A round begins by the host transferring data to the
// device global memory. The kernel is then ran ... The round ends with
// output data being transferred from global memory to the host.
// Synchronisation operations occur, and the subsequent round commences."
//
// All costs — transfers, kernels, σ — are charged as occupancies of
// timeline resources: the H2D and D2H halves of the PCIe link, the SM
// array, and the host sync path. The synchronous TransferIn / Launch /
// TransferOut methods issue onto a single default stream, where every
// operation chains on the previous one and elapsed time degenerates to the
// plain sum kernel + transfer + sync; the Async* stream API (stream.go)
// lets operations in different streams overlap on the same resources.
//
// Concurrency contract: a Host (and its Device and timeline) is
// single-goroutine — the simulated timeline is one sequential program. Run
// concurrent sweeps on separate Host/Device pairs; the transfer.Engine and
// fault injector are internally locked, and Stats/ResilienceStats values
// can be folded across hosts with their Merge methods afterwards.
type Host struct {
	dev    *Device
	engine *transfer.Engine

	// SyncCost is the fixed per-synchronisation charge, the model's σ.
	SyncCost time.Duration

	tl         *timeline.Timeline
	resH2D     *timeline.Resource // host-to-device half of the PCIe link
	resD2H     *timeline.Resource // device-to-host half of the PCIe link
	resCompute *timeline.Resource // the SM array
	resSync    *timeline.Resource // host-side synchronisation path
	def        *Stream
	streams    []*Stream
	barrier    timeline.Event // where newly created streams start

	rounds      int
	kernelStats KernelStats
	launches    int
	tracer      *Tracer

	inj           faults.Injector
	watchdog      time.Duration
	maxRelaunches int
	resil         ResilienceStats

	orec      *obs.Recorder // trace sink (nil = disabled)
	omet      *obs.Registry // metrics sink (nil = disabled)
	obsStream string        // stream currently issuing, for span tagging

	preLaunch func(*kernel.Program, int) error
	launchObs func(*kernel.Program, int, KernelResult)
}

// NewHost pairs a device with a transfer engine. syncCost instantiates σ.
func NewHost(dev *Device, engine *transfer.Engine, syncCost time.Duration) (*Host, error) {
	if dev == nil {
		return nil, fmt.Errorf("simgpu: nil device")
	}
	if engine == nil {
		return nil, fmt.Errorf("simgpu: nil transfer engine")
	}
	if syncCost < 0 {
		return nil, fmt.Errorf("simgpu: negative sync cost %v", syncCost)
	}
	h := &Host{dev: dev, engine: engine, SyncCost: syncCost}
	h.tl = timeline.New()
	h.resH2D = h.tl.NewResource("h2d")
	h.resD2H = h.tl.NewResource("d2h")
	h.resCompute = h.tl.NewResource("compute")
	h.resSync = h.tl.NewResource("sync")
	h.def = h.NewStream("default")
	return h, nil
}

// Device returns the underlying device.
func (h *Host) Device() *Device { return h.dev }

// Engine returns the transfer engine.
func (h *Host) Engine() *transfer.Engine { return h.engine }

// Timeline returns the host's shared simulated timeline, for inspecting
// the schedule (per-resource busy intervals, op dependency edges).
func (h *Host) Timeline() *timeline.Timeline { return h.tl }

// Malloc allocates size words of device global memory aligned to a block
// boundary and returns the base address, enforcing the G constraint.
func (h *Host) Malloc(size int) (int, error) {
	return h.dev.Arena().AllocAligned(size)
}

// TransferIn moves data from the host to device global memory at offset on
// the default stream (the W operator, host-to-device direction).
func (h *Host) TransferIn(offset int, data []mem.Word) error {
	return h.AsyncTransferIn(h.def, offset, data)
}

// TransferInChunked moves data in fixed-size chunks on the default stream,
// paying the Boyer α per chunk — the partitioned transfer of the paper's
// future-work discussion.
func (h *Host) TransferInChunked(offset int, data []mem.Word, chunk int) error {
	return h.AsyncTransferInChunked(h.def, offset, data, chunk)
}

// TransferOut moves length words at offset from device global memory back
// to the host on the default stream (the W operator, device-to-host
// direction).
func (h *Host) TransferOut(offset, length int) ([]mem.Word, error) {
	return h.AsyncTransferOut(h.def, offset, length)
}

// TransferOutInto is TransferOut into dst: it moves len(dst) words at
// offset into the caller's buffer instead of a fresh one.
func (h *Host) TransferOutInto(dst []mem.Word, offset int) error {
	return h.transferOutInto(h.def, dst, offset)
}

// SetTracer attaches a scheduling tracer recording every subsequent
// launch (nil detaches).
func (h *Host) SetTracer(tr *Tracer) { h.tracer = tr }

// SetFaults attaches a kernel-fault injector plus the watchdog timeout and
// relaunch budget governing recovery. Zero watchdog/maxRelaunches select
// DefaultWatchdog/DefaultMaxRelaunches; a nil injector restores fault-free
// launches. Attach the same injector to the transfer engine (its SetFaults)
// for whole-stack injection with one shared fault log.
func (h *Host) SetFaults(inj faults.Injector, watchdog time.Duration, maxRelaunches int) error {
	if watchdog < 0 {
		return fmt.Errorf("simgpu: negative watchdog timeout %v", watchdog)
	}
	if maxRelaunches < 0 {
		return fmt.Errorf("simgpu: negative relaunch budget %d", maxRelaunches)
	}
	if watchdog == 0 {
		watchdog = DefaultWatchdog
	}
	if maxRelaunches == 0 {
		maxRelaunches = DefaultMaxRelaunches
	}
	h.inj = inj
	h.watchdog = watchdog
	h.maxRelaunches = maxRelaunches
	// Faults must observe every block's real execution, so an armed injector
	// switches block memoization off device-wide (and a disarmed one, inj ==
	// nil, switches it back on).
	h.dev.memoDisabled = inj != nil
	return nil
}

// SetPreLaunch installs a gate run before every launch (sync or async) with
// the program and block count about to execute. A non-nil error refuses the
// launch without touching the device — the hook point for static-analysis
// pre-flight. Nil removes the gate.
func (h *Host) SetPreLaunch(gate func(prog *kernel.Program, numBlocks int) error) {
	h.preLaunch = gate
}

// SetLaunchObserver installs a callback invoked after every successful
// launch with the program, block count, and the launch's KernelResult —
// the hook point for differential checking of predictions against observed
// counters. Nil removes the observer.
func (h *Host) SetLaunchObserver(obs func(prog *kernel.Program, numBlocks int, res KernelResult)) {
	h.launchObs = obs
}

// SetCollectSites toggles the device's per-access-site counters for
// subsequent launches (see Device.SetCollectSites).
func (h *Host) SetCollectSites(on bool) { h.dev.SetCollectSites(on) }

// Launch runs the kernel on the default stream, folding the launch's
// statistics into the host totals.
//
// With a fault injector attached, a hung launch burns the watchdog timeout
// on the compute resource and is relaunched (up to the relaunch budget,
// then ErrWatchdogExhausted), and an SM failure takes the victim out of
// service before the launch proceeds degraded on the surviving
// multiprocessors — occupancy is recomputed by the device and results stay
// exact.
func (h *Host) Launch(prog *kernel.Program, numBlocks int) (KernelResult, error) {
	return h.AsyncLaunch(h.def, prog, numBlocks)
}

// EndRound closes a round: σ is charged on the sync path after every
// stream's outstanding work, all streams resume after it (a device-wide
// barrier), and the round counter advances.
func (h *Host) EndRound() {
	evs := make([]timeline.Event, 0, len(h.streams))
	for _, s := range h.streams {
		evs = append(evs, s.frontier)
	}
	sync := h.tl.Schedule(h.resSync, h.SyncCost, "sync", h.tl.AfterAll(evs...))
	for _, s := range h.streams {
		s.frontier = sync
	}
	h.barrier = sync
	h.rounds++
	h.omet.Add("atgpu_host_rounds_total", 1)
}

// KernelTime returns the total time the SM array was occupied (including
// watchdog charges from hung launches).
func (h *Host) KernelTime() time.Duration { return h.resCompute.BusyTime() }

// TransferTime returns the total time the PCIe link was occupied in
// either direction.
func (h *Host) TransferTime() time.Duration {
	return h.resH2D.BusyTime() + h.resD2H.BusyTime()
}

// SyncTime returns accumulated synchronisation (σ) time.
func (h *Host) SyncTime() time.Duration { return h.resSync.BusyTime() }

// TotalTime returns the full simulated wall time — the timeline makespan.
// On the default stream alone every operation chains on the previous one,
// so this equals kernel + transfer + sync exactly as in the sequential
// model; with overlapping streams it is strictly the schedule's critical
// path. This is the "Total" series of the paper's observed figures.
func (h *Host) TotalTime() time.Duration { return h.tl.Makespan() }

// OverlapSaved reports how much time stream overlap hid relative to
// running every charged cost back to back: (kernel + transfer + sync) −
// makespan. Zero for purely sequential (default-stream) execution.
func (h *Host) OverlapSaved() time.Duration {
	return h.KernelTime() + h.TransferTime() + h.SyncTime() - h.TotalTime()
}

// Rounds returns the number of completed rounds R.
func (h *Host) Rounds() int { return h.rounds }

// Launches returns the number of kernel launches.
func (h *Host) Launches() int { return h.launches }

// KernelStats returns merged statistics across all launches.
func (h *Host) KernelStats() KernelStats { return h.kernelStats }

// TransferStats returns the engine's transfer totals.
func (h *Host) TransferStats() transfer.Stats { return h.engine.Stats() }

// Resilience returns the host's fault-recovery counters.
func (h *Host) Resilience() ResilienceStats { return h.resil }

// FaultEvents returns the attached injector's fault log (nil without one).
func (h *Host) FaultEvents() []faults.Event {
	if h.inj == nil {
		return nil
	}
	return h.inj.Events()
}

// ResetClocks rewinds the timeline and counters while keeping device
// memory contents, for back-to-back measurements on one device. Every
// existing stream (default included) rejoins the origin and stays usable;
// events recorded before the reset must not be waited on afterwards.
// Resilience counters reset too; SM health does not (use
// Device.RestoreSMs), since a failed multiprocessor stays failed across
// measurements.
func (h *Host) ResetClocks() {
	h.tl.Reset()
	for _, s := range h.streams {
		s.frontier = timeline.Event{}
	}
	h.barrier = timeline.Event{}
	h.rounds, h.launches = 0, 0
	h.kernelStats = KernelStats{}
	h.resil = ResilienceStats{}
	h.engine.Reset()
}

// RunReport summarises a finished run.
type RunReport struct {
	Kernel    time.Duration
	Transfer  time.Duration
	Sync      time.Duration
	Total     time.Duration
	Rounds    int
	Stats     KernelStats
	Transfers transfer.Stats
	// Resilience counts fault-recovery work (all zero in fault-free runs).
	Resilience ResilienceStats
}

// Report snapshots the host's accumulated timing.
func (h *Host) Report() RunReport {
	return RunReport{
		Kernel:     h.KernelTime(),
		Transfer:   h.TransferTime(),
		Sync:       h.SyncTime(),
		Total:      h.TotalTime(),
		Rounds:     h.rounds,
		Stats:      h.kernelStats,
		Transfers:  h.engine.Stats(),
		Resilience: h.resil,
	}
}

// OverlapSaved reports the time stream overlap hid: component sum minus
// the scheduled total. Zero for sequential runs; never negative.
func (r RunReport) OverlapSaved() time.Duration {
	return r.Kernel + r.Transfer + r.Sync - r.Total
}

// TransferFraction returns the share of total time spent in transfers —
// the observed Δ_E of the paper's Figure 6. Degenerate reports (zero or
// negative total) yield 0, never NaN or ±Inf.
func (r RunReport) TransferFraction() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Transfer) / float64(r.Total)
}
