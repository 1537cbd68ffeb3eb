package experiments

import (
	"math/rand"
	"sort"
	"testing"

	"atgpu/internal/kernel"
	"atgpu/internal/mem"
	"atgpu/internal/obs"
)

// TestRegistrySanity: names are unique, both ladders are non-empty and
// ascending, every override field round-trips, figure panel IDs are
// unique, and unknown names error everywhere a name is taken.
func TestRegistrySanity(t *testing.T) {
	names := map[string]bool{}
	panels := map[string]string{}
	for _, w := range Workloads() {
		if names[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		names[w.Name] = true
		for _, ladder := range [][]int{w.sizes, w.fullSizes} {
			if len(ladder) == 0 || !sort.IntsAreSorted(ladder) || ladder[0] <= 0 {
				t.Errorf("%s: bad ladder %v", w.Name, ladder)
			}
		}
		var cfg Config
		if err := cfg.SetSweepSizes(w.Name, []int{7, 9}); err != nil {
			t.Fatal(err)
		}
		if got := mustSweepSizes(t, cfg, w.Name); len(got) != 2 || got[0] != 7 {
			t.Errorf("%s: override not read back: %v", w.Name, got)
		}
		for _, id := range w.Panels() {
			if other, dup := panels[id]; dup {
				t.Errorf("panel %s claimed by %s and %s", id, other, w.Name)
			}
			panels[id] = w.Name
		}
	}
	if len(panels) != 11 {
		t.Errorf("%d figure panels, want the paper's 11", len(panels))
	}
	if _, err := Lookup("sort"); err == nil {
		t.Error("Lookup accepted an unknown workload")
	}
	if _, err := DefaultConfig().SweepSizes("sort"); err == nil {
		t.Error("SweepSizes accepted an unknown workload")
	}
	if err := new(Config).SetSweepSizes("sort", []int{1}); err == nil {
		t.Error("SetSweepSizes accepted an unknown workload")
	}
	r := newTestRunner(t)
	if _, err := r.Sweep("sort"); err == nil {
		t.Error("Sweep accepted an unknown workload")
	}
	if _, err := r.SweepPipelined("scan"); err == nil {
		t.Error("SweepPipelined accepted a workload without a pipelined variant")
	}
}

// TestLintKernelIsLaunchedKernel: every entry's lint/cache-key kernel is
// byte-for-byte the first program its sweep point launches, block count
// included — at the pinned sizes and, where the workload allows, at a
// size that is not a multiple of the warp width (so buffers are padded).
func TestLintKernelIsLaunchedKernel(t *testing.T) {
	cfg := pinConfig()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := cfg.Device.WarpWidth
	for _, w := range Workloads() {
		sizes := mustSweepSizes(t, cfg, w.Name)
		if w.Name != "matmul" {
			sizes = append(sizes, sizes[0]-1)
		}
		for _, n := range sizes {
			h, err := r.newHost(w.footprint(n, b), w.Name, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			var launched string
			var launchedBlocks int
			h.SetPreLaunch(func(prog *kernel.Program, blocks int) error {
				if launched == "" {
					launched, launchedBlocks = prog.Disassemble(), blocks
				}
				return nil
			})
			s := new(pointScratch)
			s.rng.seed(r.inputSeed(w.Name, n, 0))
			if err := w.observe(h, n, s); err != nil {
				t.Fatalf("%s n=%d: %v", w.Name, n, err)
			}
			prog, blocks, err := w.Kernel(n, b)
			if err != nil {
				t.Fatalf("%s n=%d: lint kernel: %v", w.Name, n, err)
			}
			if prog.Disassemble() != launched || blocks != launchedBlocks {
				t.Errorf("%s n=%d: lint kernel (%d blocks) differs from the launched kernel (%d blocks):\n%s\nvs\n%s",
					w.Name, n, blocks, launchedBlocks, prog.Disassemble(), launched)
			}
		}
	}
}

// TestScanSweepObservesAndAbsorbsFaults: scan points go through the same
// observation path as every other workload, so they carry an obs snapshot
// when metrics are on, and a fault-exhausted point is recorded Failed
// instead of aborting the sweep.
func TestScanSweepObservesAndAbsorbsFaults(t *testing.T) {
	cfg := pinConfig()
	cfg.Obs = obs.Options{Metrics: true}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.Sweep("scan")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range data.Records {
		if rec.Obs == nil {
			t.Errorf("scan n=%d: record carries no obs snapshot", rec.N)
		}
	}

	cfg = pinConfig()
	cfg.FaultRate, cfg.FaultSeed, cfg.MaxRetries = 1, 1, 1
	r, err = NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err = r.Sweep("scan")
	if err != nil {
		t.Fatalf("fault-exhausted scan aborted the sweep: %v", err)
	}
	if data.FailedPoints() != len(data.Points) {
		t.Fatalf("%d of %d scan points failed at fault rate 1", data.FailedPoints(), len(data.Points))
	}
	for _, p := range data.Points {
		if len(p.FaultLog) == 0 {
			t.Errorf("scan n=%d: failed point carries no fault log", p.N)
		}
	}
}

// TestDrawsMatchIntn: the bulk input stream reproduces the
// rand.New(rand.NewSource(seed)).Intn loops it replaced value for value,
// for every derivation the workloads draw, so every sweep input — and
// with it every contention-dependent record — is unchanged. Lengths fall
// on both sides of the stream's 607-output warm-up and its refills, and
// consecutive fills continue one sequence, as a point's a then b do.
func TestDrawsMatchIntn(t *testing.T) {
	draws := []struct {
		name string
		draw func(s *pointScratch, i, n int) []mem.Word
		want func(*rand.Rand) mem.Word
	}{
		{"words", (*pointScratch).words, func(r *rand.Rand) mem.Word { return mem.Word(r.Intn(2001) - 1000) }},
		{"bits", (*pointScratch).bits, func(r *rand.Rand) mem.Word { return mem.Word(r.Intn(2)) }},
		{"nonNeg", (*pointScratch).nonNeg, func(r *rand.Rand) mem.Word { return mem.Word(r.Intn(2001)) }},
	}
	lengths := [][]int{{0, 1}, {31, 600}, {606, 1}, {607, 608}, {1214, 3}, {100_000, 5}}
	for _, d := range draws {
		for seed := int64(0); seed < 12; seed++ {
			for _, fills := range lengths {
				s := new(pointScratch)
				s.rng.seed(seed)
				ref := rand.New(rand.NewSource(seed))
				for i, n := range fills {
					for j, v := range d.draw(s, i, n) {
						if w := d.want(ref); v != w {
							t.Fatalf("%s seed=%d fills %v: fill %d word %d = %d, Intn gives %d",
								d.name, seed, fills, i, j, v, w)
						}
					}
				}
			}
		}
	}

	// Int31n(2001) rejects an Int31 above span2001Max, about one draw in
	// five million. Find the first one in a natural stream and draw
	// across it.
	if span2001Max != 2147483204 {
		t.Fatalf("span2001Max = %d, want 2147483204", span2001Max)
	}
	for seed := int64(0); ; seed++ {
		if seed == 8 {
			t.Fatal("no Int31n rejection in 8 seeds' first 4M draws")
		}
		probe := rand.New(rand.NewSource(seed))
		at := -1
		for k := 0; k < 4_000_000 && at < 0; k++ {
			if probe.Int31() > span2001Max {
				at = k
			}
		}
		if at < 0 {
			continue
		}
		// Fill a runs up to just before the rejected output, b across it.
		s := new(pointScratch)
		s.rng.seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i, n := range []int{at - 2, 5} {
			for j, v := range s.words(i, n) {
				if w := mem.Word(ref.Intn(2001) - 1000); v != w {
					t.Fatalf("seed=%d rejection at %d: fill %d word %d = %d, Intn gives %d", seed, at, i, j, v, w)
				}
			}
		}
		// The 5 words of b used 6 outputs, so the stream's next output
		// is number at+4: the rejection happened.
		probe = rand.New(rand.NewSource(seed))
		for k := 0; k < at+4; k++ {
			probe.Int31()
		}
		if got, want := int32(int31(s.rng.next()[0])), probe.Int31(); got != want {
			t.Fatalf("seed=%d: after the rejection at %d the stream is at %d, not output %d (%d)", seed, at, got, at+4, want)
		}
		return
	}
}
