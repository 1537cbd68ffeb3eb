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
			if err := w.observe(h, n, r.inputRNG(w.Name, n, 0)); err != nil {
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

// TestDrawsMatchIntn: the input draws reproduce the rng.Intn loops they
// replaced value for value, so every sweep input — and with it every
// contention-dependent record — is unchanged.
func TestDrawsMatchIntn(t *testing.T) {
	draws := []struct {
		name string
		draw func(*rand.Rand, int) []mem.Word
		want func(*rand.Rand) mem.Word
	}{
		{"randWords", randWords, func(r *rand.Rand) mem.Word { return mem.Word(r.Intn(2001) - 1000) }},
		{"randBits", randBits, func(r *rand.Rand) mem.Word { return mem.Word(r.Intn(2)) }},
		{"randNonNeg", randNonNeg, func(r *rand.Rand) mem.Word { return mem.Word(r.Intn(2001)) }},
	}
	for _, d := range draws {
		for seed := int64(0); seed < 64; seed++ {
			for _, n := range []int{0, 1, 31, 100_000} {
				got := d.draw(rand.New(rand.NewSource(seed)), n)
				ref := rand.New(rand.NewSource(seed))
				for i, v := range got {
					if w := d.want(ref); v != w {
						t.Fatalf("%s seed=%d n=%d: word %d = %d, Intn gives %d", d.name, seed, n, i, v, w)
					}
				}
			}
		}
	}

	// Natural streams almost never draw above Int31n's rejection bound,
	// so force it: the stub's first value rejects, and so does its third.
	if span2001Max != 2147483204 {
		t.Fatalf("span2001Max = %d, want 2147483204", span2001Max)
	}
	rejected := int64(span2001Max+1) << 32
	for _, d := range draws {
		src := func() rand.Source {
			return &stubSource{vals: []int64{rejected, 5 << 32, rejected | 0xffff, 2100 << 32, 7 << 32}}
		}
		got := d.draw(rand.New(src()), 3)
		ref := rand.New(src())
		for i, v := range got {
			if w := d.want(ref); v != w {
				t.Fatalf("%s stub: word %d = %d, Intn gives %d", d.name, i, v, w)
			}
		}
	}
}

// stubSource replays vals from Int63, then zeros.
type stubSource struct {
	vals []int64
	next int
}

func (s *stubSource) Int63() int64 {
	if s.next >= len(s.vals) {
		return 0
	}
	s.next++
	return s.vals[s.next-1]
}

func (s *stubSource) Seed(int64) {}
