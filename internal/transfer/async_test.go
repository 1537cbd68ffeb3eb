package transfer

import (
	"testing"
	"time"

	"atgpu/internal/faults"
	"atgpu/internal/mem"
	"atgpu/internal/timeline"
)

// asyncWords builds n deterministic words.
func asyncWords(n int) []mem.Word {
	w := make([]mem.Word, n)
	for i := range w {
		w[i] = mem.Word(i*5 + 1)
	}
	return w
}

// TestInAsyncMatchesSyncCost: the scheduled occupancy equals the cost
// the synchronous path returns, and same-resource transfers chain.
func TestInAsyncMatchesSyncCost(t *testing.T) {
	engSync, gSync := newTestEngine(t)
	engAsync, gAsync := newTestEngine(t)
	src := asyncWords(64)

	want, err := engSync.In(gSync, 0, src)
	if err != nil {
		t.Fatal(err)
	}

	tl := timeline.New()
	link := tl.NewResource("h2d")
	ev1, err := engAsync.InAsync(tl, link, gAsync, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Time() != want {
		t.Fatalf("async completion %v, want sync cost %v", ev1.Time(), want)
	}
	ev2, err := engAsync.InAsync(tl, link, gAsync, 64, src)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Time() != 2*want {
		t.Fatalf("second transfer completes at %v, want serialized %v", ev2.Time(), 2*want)
	}
	if link.BusyTime() != 2*want {
		t.Fatalf("link busy %v, want %v", link.BusyTime(), 2*want)
	}
}

// TestAsyncFaultIsolatedAcrossResources is the streams-fault contract
// at the engine level: a corrupt-then-retry on the H2D link widens
// only the H2D occupancy — an overlapped D2H transfer keeps the exact
// interval it has in a fault-free schedule.
func TestAsyncFaultIsolatedAcrossResources(t *testing.T) {
	run := func(inj faults.Injector) (in, out timeline.Interval, ops []timeline.Op) {
		t.Helper()
		var eng *Engine
		var g *mem.Global
		if inj != nil {
			eng, g = newFaultEngine(t, inj, noJitterPolicy(3))
		} else {
			eng, g = newTestEngine(t)
		}
		// Preload the region the D2H transfer reads.
		if err := g.WriteSlice(128, asyncWords(64)); err != nil {
			t.Fatal(err)
		}
		tl := timeline.New()
		h2d := tl.NewResource("h2d")
		d2h := tl.NewResource("d2h")
		if _, err := eng.InAsync(tl, h2d, g, 0, asyncWords(64)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.OutAsync(tl, d2h, g, 128, make([]mem.Word, 64)); err != nil {
			t.Fatal(err)
		}
		return h2d.Intervals()[0], d2h.Intervals()[0], tl.Ops()
	}

	cleanIn, cleanOut, _ := run(nil)
	plan := faults.NewPlan().QueueTransfer(faults.SiteH2D,
		faults.Decision{Kind: faults.Corrupt, WordIndex: 7, Mask: 0xff})
	faultIn, faultOut, _ := run(plan)

	if faultOut != cleanOut {
		t.Fatalf("D2H interval perturbed by H2D fault: %+v vs clean %+v", faultOut, cleanOut)
	}
	// The retried transfer widens its own occupancy by one clean attempt
	// plus the first backoff wait.
	wantIn := 2*cleanIn.Duration() + 10*time.Microsecond
	if faultIn.Duration() != wantIn {
		t.Fatalf("faulted H2D occupancy %v, want %v", faultIn.Duration(), wantIn)
	}
	if faultIn.Start != cleanIn.Start {
		t.Fatalf("faulted H2D start moved: %v vs %v", faultIn.Start, cleanIn.Start)
	}
}

// TestAsyncStallDeterministicReplay: identical seeds and plans yield
// op-for-op identical schedules across runs.
func TestAsyncStallDeterministicReplay(t *testing.T) {
	run := func() []timeline.Op {
		t.Helper()
		plan := faults.NewPlan().
			QueueTransfer(faults.SiteH2D, faults.Decision{Kind: faults.Stall, StallFactor: 3}).
			QueueTransfer(faults.SiteD2H, faults.Decision{Kind: faults.Drop})
		eng, g := newFaultEngine(t, plan, noJitterPolicy(3))
		if err := g.WriteSlice(128, asyncWords(32)); err != nil {
			t.Fatal(err)
		}
		tl := timeline.New()
		h2d := tl.NewResource("h2d")
		d2h := tl.NewResource("d2h")
		if _, err := eng.InAsync(tl, h2d, g, 0, asyncWords(32)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.OutAsync(tl, d2h, g, 128, make([]mem.Word, 32)); err != nil {
			t.Fatal(err)
		}
		return tl.Ops()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("op counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End || a[i].Resource != b[i].Resource {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestInChunkedAsyncChains: chunks are distinct chained occupancies; a
// fault in one chunk delays later chunks on the same stream but the
// total still matches the synchronous chunked cost.
func TestInChunkedAsyncChains(t *testing.T) {
	plan := func() faults.Injector {
		return faults.NewPlan().QueueTransfer(faults.SiteH2D,
			faults.Decision{Kind: faults.Corrupt, WordIndex: 1, Mask: 2})
	}
	engSync, gSync := newFaultEngine(t, plan(), noJitterPolicy(3))
	src := asyncWords(100)
	want, err := engSync.InChunked(gSync, 0, src, 32)
	if err != nil {
		t.Fatal(err)
	}

	engAsync, gAsync := newFaultEngine(t, plan(), noJitterPolicy(3))
	tl := timeline.New()
	link := tl.NewResource("h2d")
	ev, err := engAsync.InChunkedAsync(tl, link, gAsync, 0, src, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Time() != want {
		t.Fatalf("async chunked completion %v, want sync cost %v", ev.Time(), want)
	}
	if got := len(link.Intervals()); got != 4 {
		t.Fatalf("chunk occupancies = %d, want 4", got)
	}
	if _, err := engAsync.InChunkedAsync(tl, link, gAsync, 0, src, 0); err == nil {
		t.Fatal("chunk=0 accepted by InChunkedAsync")
	}
}
