package simgpu

import (
	"testing"
	"time"

	"atgpu/internal/faults"
	"atgpu/internal/mem"
	"atgpu/internal/timeline"
	"atgpu/internal/transfer"
)

// streamFaultRun drives one overlapped two-stream round: stream "in"
// moves data to the device while stream "run" launches a kernel and
// reads back an untouched region. It returns the host plus the
// round-trip data for verification.
func streamFaultRun(t *testing.T, inj faults.Injector) (*Host, int, []mem.Word, []mem.Word) {
	t.Helper()
	h := newHostPair(t, 0)
	if inj != nil {
		eng := h.Engine()
		if err := eng.SetFaults(inj, noJitterHostPolicy(3)); err != nil {
			t.Fatal(err)
		}
		if err := h.SetFaults(inj, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	base, err := h.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	// Preload the region stream "run" reads back, on the default stream.
	preload := seqWords(64)
	if err := h.TransferIn(base+128, preload); err != nil {
		t.Fatal(err)
	}
	h.Sync()

	sIn := h.NewStream("in")
	sRun := h.NewStream("run")
	data := seqWords(128)
	if err := h.AsyncTransferIn(sIn, base, data); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AsyncLaunch(sRun, squareKernel(), 4); err != nil {
		t.Fatal(err)
	}
	out, err := h.AsyncTransferOut(sRun, base+128, 64)
	if err != nil {
		t.Fatal(err)
	}
	h.EndRound()
	return h, base, data, out
}

// noJitterHostPolicy mirrors transfer's test policy for exact charges.
func noJitterHostPolicy(maxRetries int) transfer.RetryPolicy {
	return transfer.RetryPolicy{
		MaxRetries:    maxRetries,
		Backoff:       10 * time.Microsecond,
		BackoffFactor: 2,
		MaxBackoff:    time.Millisecond,
		Jitter:        0,
		Seed:          1,
	}
}

// opsOn filters a schedule down to one resource.
func opsOn(ops []timeline.Op, resource string) []timeline.Op {
	var out []timeline.Op
	for _, op := range ops {
		if op.Resource == resource {
			out = append(out, op)
		}
	}
	return out
}

// TestStreamFaultDoesNotPerturbOtherStream: a corrupt-retried transfer
// on one stream must widen only its own link occupancy; the concurrent
// stream's kernel and D2H intervals stay exactly where the fault-free
// schedule put them, and the retried data still lands intact.
func TestStreamFaultDoesNotPerturbOtherStream(t *testing.T) {
	clean, _, cleanData, cleanOut := streamFaultRun(t, nil)

	// The preload is the first H2D transaction; fault the overlapped one
	// (second H2D decision) and leave everything else clean.
	plan := faults.NewPlan().
		QueueTransfer(faults.SiteH2D, faults.Decision{}).
		QueueTransfer(faults.SiteH2D, faults.Decision{Kind: faults.Corrupt, WordIndex: 9, Mask: 0xf0})
	faulted, faultedBase, faultedData, faultedOut := streamFaultRun(t, plan)

	if st := faulted.TransferStats(); st.Retries != 1 || st.CorruptionsDetected != 1 {
		t.Fatalf("expected exactly one retried corruption, got %+v", st)
	}

	// The other stream's events are untouched, interval for interval.
	cleanOps, faultedOps := clean.Timeline().Ops(), faulted.Timeline().Ops()
	for _, resource := range []string{"compute", "d2h"} {
		a, b := opsOn(cleanOps, resource), opsOn(faultedOps, resource)
		if len(a) != len(b) {
			t.Fatalf("%s op count changed: %d vs %d", resource, len(a), len(b))
		}
		for i := range a {
			if a[i].Start != b[i].Start || a[i].End != b[i].End {
				t.Fatalf("%s op %d moved under fault: %+v vs %+v", resource, i, b[i], a[i])
			}
		}
	}

	// The faulted stream's link occupancy widened by retry + backoff.
	if faulted.TransferTime() <= clean.TransferTime() {
		t.Fatalf("faulted transfer time %v not larger than clean %v",
			faulted.TransferTime(), clean.TransferTime())
	}

	// Data correctness: device memory is bit-identical to the fault-free
	// run (the kernel overwrites the first words, so compare run to run),
	// and the words past the kernel's output are the retried input.
	landed, err := readGlobal(faulted.Device().Global(), faultedBase, len(faultedData))
	if err != nil {
		t.Fatal(err)
	}
	cleanLanded, err := readGlobal(clean.Device().Global(), faultedBase, len(cleanData))
	if err != nil {
		t.Fatal(err)
	}
	for i := range landed {
		if landed[i] != cleanLanded[i] {
			t.Fatalf("landed word %d = %d, clean run has %d", i, landed[i], cleanLanded[i])
		}
	}
	const kernelWords = 16 // 4 blocks × Tiny width 4 land at offset 0
	for i := kernelWords; i < len(faultedData); i++ {
		if landed[i] != faultedData[i] {
			t.Fatalf("retried word %d = %d, want %d", i, landed[i], faultedData[i])
		}
	}
	for i := range cleanOut {
		if faultedOut[i] != cleanOut[i] {
			t.Fatalf("readback word %d = %d, want %d", i, faultedOut[i], cleanOut[i])
		}
	}
}

// TestStreamFaultDeterministicReplay: the same plan replays to an
// op-for-op identical overlapped schedule.
func TestStreamFaultDeterministicReplay(t *testing.T) {
	plan := func() faults.Injector {
		return faults.NewPlan().
			QueueTransfer(faults.SiteH2D, faults.Decision{Kind: faults.Stall, StallFactor: 4}).
			QueueTransfer(faults.SiteH2D, faults.Decision{Kind: faults.Drop})
	}
	h1, _, _, _ := streamFaultRun(t, plan())
	h2, _, _, _ := streamFaultRun(t, plan())
	a, b := h1.Timeline().Ops(), h2.Timeline().Ops()
	if len(a) != len(b) {
		t.Fatalf("op counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End || a[i].Resource != b[i].Resource {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if h1.TotalTime() != h2.TotalTime() {
		t.Fatalf("makespans differ: %v vs %v", h1.TotalTime(), h2.TotalTime())
	}
}

// TestStreamWatchdogChargesInStream: a hung launch on an explicit
// stream burns the watchdog on the compute resource in stream order,
// leaving a concurrent stream's transfer where it was.
func TestStreamWatchdogChargesInStream(t *testing.T) {
	plan := faults.NewPlan().QueueLaunch(faults.Decision{Kind: faults.Hang})
	h := newHostPair(t, 0)
	if err := h.SetFaults(plan, time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	base, err := h.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	sIn := h.NewStream("in")
	sRun := h.NewStream("run")
	if err := h.AsyncTransferIn(sIn, base, seqWords(128)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AsyncLaunch(sRun, squareKernel(), 2); err != nil {
		t.Fatal(err)
	}
	res := h.Resilience()
	if res.WatchdogFires != 1 || res.Relaunches != 1 {
		t.Fatalf("resilience = %+v, want one fire and one relaunch", res)
	}
	compute := opsOn(h.Timeline().Ops(), "compute")
	if len(compute) != 2 {
		t.Fatalf("compute ops = %d, want watchdog + relaunch", len(compute))
	}
	if compute[0].End != time.Millisecond {
		t.Fatalf("watchdog occupancy ends at %v, want 1ms", compute[0].End)
	}
	if compute[1].Start != compute[0].End {
		t.Fatalf("relaunch starts at %v, want chained after watchdog %v",
			compute[1].Start, compute[0].End)
	}
	if h.KernelTime() <= time.Millisecond {
		t.Fatal("kernel clock missing the watchdog charge")
	}
}
