package simgpu

import (
	"errors"
	"testing"
	"time"

	"atgpu/internal/faults"
	"atgpu/internal/kernel"
)

// squareKernel stores (blockID*width+lane)² per thread, enough work to
// exercise scheduling across SMs with a verifiable output.
func squareKernel() *kernel.Program {
	return storePerLane("square", 0, func(kb *kernel.Builder, out kernel.Reg) {
		l := kb.Reg()
		kb.LaneID(l)
		blk := kb.Reg()
		kb.BlockID(blk)
		wdim := kb.Reg()
		kb.BlockDim(wdim)
		kb.Mul(out, blk, kernel.R(wdim))
		kb.Add(out, out, kernel.R(l))
		kb.Mul(out, out, kernel.R(out))
	})
}

func TestDeviceFailSM(t *testing.T) {
	d := newTiny(t) // 2 SMs
	if d.ActiveSMs() != 2 || d.FailedSMs() != nil {
		t.Fatalf("fresh device: active=%d failed=%v", d.ActiveSMs(), d.FailedSMs())
	}
	if err := d.FailSM(2); err == nil {
		t.Error("out-of-range SM index accepted")
	}
	if err := d.FailSM(-1); err == nil {
		t.Error("negative SM index accepted")
	}
	if err := d.FailSM(1); err != nil {
		t.Fatal(err)
	}
	if err := d.FailSM(1); err != nil {
		t.Errorf("re-failing a failed SM should be a no-op: %v", err)
	}
	if d.ActiveSMs() != 1 {
		t.Fatalf("active SMs = %d, want 1", d.ActiveSMs())
	}
	if got := d.FailedSMs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("failed SMs = %v, want [1]", got)
	}
	// The degradation floor: the last active SM cannot be failed.
	if err := d.FailSM(0); !errors.Is(err, ErrLastActiveSM) {
		t.Fatalf("last-SM failure: %v, want ErrLastActiveSM", err)
	}
	d.RestoreSMs()
	if d.ActiveSMs() != 2 || d.FailedSMs() != nil {
		t.Fatal("RestoreSMs left residue")
	}
}

// TestDegradedLaunchExactResults is the degraded-SM correctness test: a
// launch on a device with a failed multiprocessor produces bitwise-equal
// kernel output, just more slowly.
func TestDegradedLaunchExactResults(t *testing.T) {
	const blocks, n = 8, 32 // Tiny: width 4, so 8 blocks fill 32 words

	healthy := newTiny(t)
	prog := squareKernel()
	resHealthy, err := healthy.Launch(prog, blocks)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := runAndRead(t, healthy, prog, 0, n) // re-read memory (0-block launch is a no-op)

	degraded := newTiny(t)
	if err := degraded.FailSM(0); err != nil {
		t.Fatal(err)
	}
	resDegraded, err := degraded.Launch(prog, blocks)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, err := readGlobal(degraded.Global(), 0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantOut {
		if gotOut[i] != wantOut[i] {
			t.Fatalf("degraded output [%d] = %d, want %d (results must stay exact)", i, gotOut[i], wantOut[i])
		}
	}
	if resDegraded.Time <= resHealthy.Time {
		t.Fatalf("degraded launch (%v) not slower than healthy (%v)", resDegraded.Time, resHealthy.Time)
	}
	if resDegraded.Stats.BlocksExecuted != int64(blocks) {
		t.Fatalf("degraded launch executed %d blocks, want %d", resDegraded.Stats.BlocksExecuted, blocks)
	}
}

// TestDegradedTraceUsesPhysicalIDs: with SM 0 failed, all scheduling
// events must report the surviving physical SM.
func TestDegradedTraceUsesPhysicalIDs(t *testing.T) {
	d := newTiny(t)
	if err := d.FailSM(0); err != nil {
		t.Fatal(err)
	}
	tr := &Tracer{}
	if _, err := d.LaunchTraced(squareKernel(), 4, tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks()) == 0 {
		t.Fatal("no blocks traced")
	}
	for _, sp := range tr.Blocks() {
		if sp.SM != 1 {
			t.Fatalf("block on SM %d, want physical SM 1 (SM 0 is failed)", sp.SM)
		}
	}
}

func TestHostSetFaultsValidation(t *testing.T) {
	h := newHostPair(t, 0)
	if err := h.SetFaults(faults.Nop{}, -time.Second, 1); err == nil {
		t.Error("negative watchdog accepted")
	}
	if err := h.SetFaults(faults.Nop{}, 0, -1); err == nil {
		t.Error("negative relaunch budget accepted")
	}
	if err := h.SetFaults(faults.Nop{}, 0, 0); err != nil {
		t.Errorf("defaulted SetFaults rejected: %v", err)
	}
}

// TestWatchdogRelaunch: a hung launch burns the watchdog timeout on the
// kernel clock and is retried; the retry succeeds.
func TestWatchdogRelaunch(t *testing.T) {
	const wd = 2 * time.Millisecond
	h := newHostPair(t, 0)
	plan := faults.NewPlan().QueueLaunch(
		faults.Decision{Kind: faults.Hang},
		faults.Decision{Kind: faults.Hang},
	)
	if err := h.SetFaults(plan, wd, 3); err != nil {
		t.Fatal(err)
	}
	kb := kernel.NewBuilder("noop", 0)
	kb.Nop()
	if _, err := h.Launch(kb.MustBuild(), 2); err != nil {
		t.Fatal(err)
	}
	r := h.Resilience()
	if r.WatchdogFires != 2 || r.Relaunches != 2 {
		t.Fatalf("resilience = %+v, want 2 fires / 2 relaunches", r)
	}
	if r.WatchdogTime != 2*wd {
		t.Fatalf("watchdog time = %v, want %v", r.WatchdogTime, 2*wd)
	}
	if h.KernelTime() < 2*wd {
		t.Fatalf("kernel clock %v does not include watchdog charges %v", h.KernelTime(), 2*wd)
	}
	if h.Launches() != 1 {
		t.Fatalf("launches = %d, want 1 (hung attempts are not completions)", h.Launches())
	}
	if !r.Degraded() {
		t.Fatal("Degraded() = false after watchdog activity")
	}
	if rep := h.Report(); rep.Resilience != r {
		t.Fatalf("report resilience %+v != host resilience %+v", rep.Resilience, r)
	}
}

// TestWatchdogExhausted: hangs past the relaunch budget fail the launch
// with ErrWatchdogExhausted.
func TestWatchdogExhausted(t *testing.T) {
	h := newHostPair(t, 0)
	plan := faults.NewPlan().QueueLaunch(
		faults.Decision{Kind: faults.Hang},
		faults.Decision{Kind: faults.Hang},
	)
	if err := h.SetFaults(plan, time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	kb := kernel.NewBuilder("noop", 0)
	kb.Nop()
	if _, err := h.Launch(kb.MustBuild(), 1); !errors.Is(err, ErrWatchdogExhausted) {
		t.Fatalf("err = %v, want ErrWatchdogExhausted", err)
	}
	if r := h.Resilience(); r.WatchdogFires != 2 {
		t.Fatalf("resilience = %+v, want 2 fires", r)
	}
}

// TestHostSMFailDegradesGracefully: an injected SM failure marks the SM
// failed, the launch proceeds degraded, and results match the healthy run.
func TestHostSMFailDegradesGracefully(t *testing.T) {
	const blocks, n = 8, 32
	prog := squareKernel()

	healthy := newHostPair(t, 0)
	if _, err := healthy.Launch(prog, blocks); err != nil {
		t.Fatal(err)
	}
	want, err := readGlobal(healthy.Device().Global(), 0, n)
	if err != nil {
		t.Fatal(err)
	}

	faulted := newHostPair(t, 0)
	plan := faults.NewPlan().QueueLaunch(faults.Decision{Kind: faults.SMFail, Victim: 1})
	if err := faulted.SetFaults(plan, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := faulted.Launch(prog, blocks); err != nil {
		t.Fatal(err)
	}
	got, err := readGlobal(faulted.Device().Global(), 0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("degraded host output [%d] = %d, want %d", i, got[i], want[i])
		}
	}
	r := faulted.Resilience()
	if r.FailedSMs != 1 || r.DegradedLaunches != 1 {
		t.Fatalf("resilience = %+v, want 1 failed SM / 1 degraded launch", r)
	}
	if faulted.Device().ActiveSMs() != 1 {
		t.Fatalf("active SMs = %d, want 1", faulted.Device().ActiveSMs())
	}
	if faulted.KernelTime() <= healthy.KernelTime() {
		t.Fatalf("degraded kernel clock %v not above healthy %v", faulted.KernelTime(), healthy.KernelTime())
	}
	// The shared fault log surfaces through the host.
	if ev := faulted.FaultEvents(); len(ev) != 1 || ev[0].Kind != faults.SMFail {
		t.Fatalf("fault log = %v, want one sm-fail event", ev)
	}
}

// TestSMFailFloorKeepsRunning: injected failures can never take out the
// last SM — the launch continues at minimum capacity instead of dying.
func TestSMFailFloorKeepsRunning(t *testing.T) {
	h := newHostPair(t, 0) // Tiny: 2 SMs
	plan := faults.NewPlan().QueueLaunch(
		faults.Decision{Kind: faults.SMFail, Victim: 0},
	).QueueLaunch(
		faults.Decision{Kind: faults.SMFail, Victim: 1},
	)
	if err := h.SetFaults(plan, 0, 0); err != nil {
		t.Fatal(err)
	}
	prog := squareKernel()
	if _, err := h.Launch(prog, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Launch(prog, 4); err != nil {
		t.Fatal(err)
	}
	r := h.Resilience()
	if r.FailedSMs != 1 {
		t.Fatalf("failed SMs = %d, want 1 (floor refused the second)", r.FailedSMs)
	}
	if h.Device().ActiveSMs() != 1 {
		t.Fatalf("active SMs = %d, want 1", h.Device().ActiveSMs())
	}
	if r.DegradedLaunches != 2 {
		t.Fatalf("degraded launches = %d, want 2", r.DegradedLaunches)
	}
}

// TestResetClocksResilience: ResetClocks zeroes resilience counters but
// keeps SM health (hardware state, not round state).
func TestResetClocksResilience(t *testing.T) {
	h := newHostPair(t, 0)
	plan := faults.NewPlan().QueueLaunch(faults.Decision{Kind: faults.SMFail, Victim: 0})
	if err := h.SetFaults(plan, 0, 0); err != nil {
		t.Fatal(err)
	}
	kb := kernel.NewBuilder("noop", 0)
	kb.Nop()
	if _, err := h.Launch(kb.MustBuild(), 1); err != nil {
		t.Fatal(err)
	}
	h.ResetClocks()
	if h.Resilience() != (ResilienceStats{}) {
		t.Fatalf("ResetClocks left resilience residue: %+v", h.Resilience())
	}
	if h.Device().ActiveSMs() != 1 {
		t.Fatal("ResetClocks must not restore failed SMs")
	}
}

func TestResilienceMerge(t *testing.T) {
	a := ResilienceStats{Relaunches: 1, WatchdogFires: 2, WatchdogTime: time.Second}
	b := ResilienceStats{DegradedLaunches: 3, FailedSMs: 1, WatchdogTime: time.Second}
	a.Merge(b)
	want := ResilienceStats{Relaunches: 1, WatchdogFires: 2, WatchdogTime: 2 * time.Second, DegradedLaunches: 3, FailedSMs: 1}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
	if (ResilienceStats{}).Degraded() {
		t.Fatal("zero resilience reports degraded")
	}
}
