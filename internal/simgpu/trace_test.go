package simgpu

import (
	"testing"

	"atgpu/internal/kernel"
)

func traceKernel() *kernel.Program {
	kb := kernel.NewBuilder("traceme", 0)
	j := kb.Reg()
	v := kb.Reg()
	kb.LaneID(j)
	kb.LdGlobal(v, j)
	kb.StGlobal(j, v)
	return kb.MustBuild()
}

func TestLaunchTracedRecordsBlocks(t *testing.T) {
	d := newTiny(t)
	tr := &Tracer{CaptureMemory: true}
	res, err := d.LaunchTraced(traceKernel(), 5, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks()) != 5 {
		t.Fatalf("traced %d blocks, want 5", len(tr.Blocks()))
	}
	for _, b := range tr.Blocks() {
		if b.Retired < b.Scheduled {
			t.Fatalf("block %d retired %d before scheduled %d", b.Block, b.Retired, b.Scheduled)
		}
		if b.Instrs != int64(traceKernel().Len()) {
			t.Fatalf("block %d instrs = %d, want %d", b.Block, b.Instrs, traceKernel().Len())
		}
		if b.SM < 0 || b.SM >= 2 {
			t.Fatalf("block %d on SM %d", b.Block, b.SM)
		}
	}
	// 2 global accesses per block.
	if got := len(tr.MemEvents()); got != 10 {
		t.Fatalf("traced %d memory events, want 10", got)
	}
	if tr.Truncated {
		t.Fatal("unexpected truncation")
	}
	// Tracing must not change results.
	d2 := newTiny(t)
	res2, err := d2.Launch(traceKernel(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != res2.Stats {
		t.Fatalf("tracing changed stats:\n%+v\nvs\n%+v", res.Stats, res2.Stats)
	}
}

func TestTracerMemoryOffByDefault(t *testing.T) {
	d := newTiny(t)
	tr := &Tracer{}
	if _, err := d.LaunchTraced(traceKernel(), 3, tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.MemEvents()) != 0 {
		t.Fatalf("memory events recorded without CaptureMemory: %d", len(tr.MemEvents()))
	}
}

func TestTracerTruncation(t *testing.T) {
	d := newTiny(t)
	tr := &Tracer{MaxEvents: 3}
	if _, err := d.LaunchTraced(traceKernel(), 10, tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks()) != 3 {
		t.Fatalf("cap ignored: %d blocks", len(tr.Blocks()))
	}
	if !tr.Truncated {
		t.Fatal("Truncated not set")
	}
}

func TestHostSetTracer(t *testing.T) {
	d := newTiny(t)
	eng, err := newTestEngine()
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(d, eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Tracer{}
	h.SetTracer(tr)
	if _, err := h.Launch(traceKernel(), 4); err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks()) != 4 {
		t.Fatalf("host-attached tracer saw %d blocks, want 4", len(tr.Blocks()))
	}
	// Detach: subsequent launches must not grow the trace.
	h.SetTracer(nil)
	if _, err := h.Launch(traceKernel(), 4); err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks()) != 4 {
		t.Fatalf("detached tracer still recording: %d blocks", len(tr.Blocks()))
	}
}
