package analyze_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/core"
	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// testCostParams is a valid calibrated-shape parameter set; the differential
// cost check is an identity (same formula, same inputs), so the exact values
// only need to be non-degenerate.
func testCostParams(cfg simgpu.Config) core.CostParams {
	return core.CostParams{
		Gamma:  6.61e7,
		Lambda: 0.812,
		Sigma:  5e-5,
		Alpha:  2.5e-5,
		Beta:   2.67e-9,
		KPrime: cfg.NumSMs,
		H:      cfg.MaxBlocksPerSM,
	}
}

func newDiffHost(t testing.TB, cfg simgpu.Config) *simgpu.Host {
	t.Helper()
	dev, err := simgpu.New(cfg)
	if err != nil {
		t.Fatalf("New device: %v", err)
	}
	eng, err := transfer.NewEngine(transfer.PCIeGen3x8Link(), transfer.Pinned)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	h, err := simgpu.NewHost(dev, eng, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	return h
}

// attachChecker arms the host so every launch is analysed statically and the
// prediction is compared, counter by counter and site by site, against what
// the device observed. Returns a counter of checked launches.
func attachChecker(t *testing.T, h *simgpu.Host, cfg simgpu.Config) *int {
	return attachCheckerAllowing(t, h, cfg, nil)
}

// attachCheckerAllowing is attachChecker with an allowance for kernels that
// are warp-synchronous by design: raceOK names programs whose race findings
// are expected true positives (they rely on lockstep warp execution instead
// of barriers). Error findings from any other analyzer still fail.
func attachCheckerAllowing(t *testing.T, h *simgpu.Host, cfg simgpu.Config, raceOK func(progName string) bool) *int {
	c, _ := attachCheckerRaces(t, h, cfg, raceOK)
	return c
}

// attachCheckerRaces additionally reports (via the returned flag) whether
// any allowed race finding was actually produced.
func attachCheckerRaces(t *testing.T, h *simgpu.Host, cfg simgpu.Config, raceOK func(progName string) bool) (*int, *bool) {
	t.Helper()
	h.SetCollectSites(true)
	cp := testCostParams(cfg)
	launches := 0
	sawAllowedRace := false
	h.SetLaunchObserver(func(prog *kernel.Program, numBlocks int, res simgpu.KernelResult) {
		launches++
		rep, err := analyze.Program(prog, analyze.Options{
			Machine: analyze.FromConfig(cfg),
			Blocks:  numBlocks,
			Cost:    &cp,
		})
		if err != nil {
			t.Fatalf("%s blocks=%d: analyze: %v", prog.Name, numBlocks, err)
		}
		if !rep.Precise {
			t.Errorf("%s blocks=%d: analysis not precise", prog.Name, numBlocks)
		}
		allowRaces := raceOK != nil && raceOK(prog.Name)
		for _, f := range rep.Findings {
			if f.Severity != analyze.SevError {
				continue
			}
			if allowRaces && f.Analyzer == analyze.AnalyzerRace {
				sawAllowedRace = true
				continue
			}
			t.Errorf("%s blocks=%d: unexpected error finding: %s", prog.Name, numBlocks, f)
		}
		checkStats(t, prog.Name, numBlocks, rep.Stats, res.Stats)
		checkFindingConsistency(t, prog.Name, rep, res.Stats)
		checkSites(t, prog.Name, rep.Sites, res.Sites)
		checkCost(t, prog.Name, cp, rep, res, numBlocks)
	})
	return &launches, &sawAllowedRace
}

// checkStats demands exact equality on every scheduling-independent counter.
func checkStats(t *testing.T, name string, blocks int, st analyze.StaticStats, obs simgpu.KernelStats) {
	t.Helper()
	cases := []struct {
		field     string
		got, want int64
	}{
		{"InstructionsIssued", st.InstructionsIssued, obs.InstructionsIssued},
		{"LaneOps", st.LaneOps, obs.LaneOps},
		{"GlobalAccesses", st.GlobalAccesses, obs.GlobalAccesses},
		{"GlobalTransactions", st.GlobalTransactions, obs.GlobalTransactions},
		{"UncoalescedAccesses", st.UncoalescedAccesses, obs.UncoalescedAccesses},
		{"SharedAccesses", st.SharedAccesses, obs.SharedAccesses},
		{"BankConflicts", st.BankConflicts, obs.BankConflicts},
		{"MaxConflictDegree", int64(st.MaxConflictDegree), int64(obs.MaxConflictDegree)},
		{"AtomicAccesses", st.AtomicAccesses, obs.AtomicAccesses},
		{"AtomicSerialisations", st.AtomicSerialisations, obs.AtomicSerialisations},
		{"MaxAtomicDegree", int64(st.MaxAtomicDegree), int64(obs.MaxAtomicDegree)},
		{"MaxWarpAtomicSerial", st.MaxWarpAtomicSerial, obs.MaxWarpAtomicSerial},
		{"Barriers", st.Barriers, obs.Barriers},
		{"DivergentBranches", st.DivergentBranches, obs.DivergentBranches},
		{"BlocksExecuted", st.BlocksExecuted, obs.BlocksExecuted},
		{"MaxWarpInstrs", st.MaxWarpInstrs, obs.MaxWarpInstrs},
		{"OccupancyLimit", int64(st.OccupancyLimit), int64(obs.OccupancyLimit)},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s blocks=%d: static %s = %d, simulator observed %d",
				name, blocks, c.field, c.got, c.want)
		}
	}
}

// checkFindingConsistency ties the memory analyzer's verdicts to the
// observed counters: a degraded-access warning must appear exactly when the
// device saw degraded accesses.
func checkFindingConsistency(t *testing.T, name string, rep *analyze.Report, obs simgpu.KernelStats) {
	t.Helper()
	warned := false
	for _, f := range rep.Findings {
		if f.Analyzer == analyze.AnalyzerMemory {
			warned = true
		}
	}
	degraded := obs.UncoalescedAccesses > 0 || obs.BankConflicts > 0
	if warned != degraded {
		t.Errorf("%s: memory warnings present=%v but observed uncoalesced=%d conflicts=%d",
			name, warned, obs.UncoalescedAccesses, obs.BankConflicts)
	}
}

// checkSites demands the static per-site prediction match the observed
// per-site counters instruction for instruction.
func checkSites(t *testing.T, name string, st []analyze.Site, obs []simgpu.SiteStat) {
	t.Helper()
	if len(st) != len(obs) {
		t.Errorf("%s: static predicts %d memory sites, simulator observed %d", name, len(st), len(obs))
		return
	}
	for i := range st {
		s, o := st[i], obs[i]
		if s.PC != o.PC || s.Op != o.Op || s.Line != o.Line {
			t.Errorf("%s: site %d identity mismatch: static pc=%d op=%v line=%d, observed pc=%d op=%v line=%d",
				name, i, s.PC, s.Op, s.Line, o.PC, o.Op, o.Line)
			continue
		}
		if s.Accesses != o.Accesses || s.Transactions != o.Transactions ||
			s.Uncoalesced != o.Uncoalesced || s.Conflicted != o.Conflicted ||
			s.MaxDegree != o.MaxDegree {
			t.Errorf("%s: site pc=%d (%v): static acc=%d txn=%d unc=%d conf=%d deg=%d, observed acc=%d txn=%d unc=%d conf=%d deg=%d",
				name, s.PC, s.Op,
				s.Accesses, s.Transactions, s.Uncoalesced, s.Conflicted, s.MaxDegree,
				o.Accesses, o.Transactions, o.Uncoalesced, o.Conflicted, o.MaxDegree)
		}
	}
}

// checkCost verifies the static Expression (2) kernel term equals the same
// expression evaluated from the simulator's observed counters — with the
// counters matching, the two must agree to the last bit.
func checkCost(t *testing.T, name string, cp core.CostParams, rep *analyze.Report, res simgpu.KernelResult, blocks int) {
	t.Helper()
	if rep.Cost == nil {
		t.Errorf("%s: no cost estimate", name)
		return
	}
	if blocks == 0 {
		return
	}
	occ := res.Stats.OccupancyLimit
	f := math.Ceil(float64(blocks) / float64(cp.KPrime*occ))
	tOps := float64(res.Stats.MaxWarpInstrs)
	q := float64(res.Stats.GlobalTransactions)
	wantGPU := (f*tOps + cp.Lambda*q) / cp.Gamma
	wantPerfect := (tOps + cp.Lambda*q) / cp.Gamma
	if rep.Cost.GPUSeconds != wantGPU || rep.Cost.PerfectSeconds != wantPerfect {
		t.Errorf("%s: static cost gpu=%g perfect=%g, from observed counters gpu=%g perfect=%g",
			name, rep.Cost.GPUSeconds, rep.Cost.PerfectSeconds, wantGPU, wantPerfect)
	}
}

func randWords(n int, seed int64) []algorithms.Word {
	rng := rand.New(rand.NewSource(seed))
	w := make([]algorithms.Word, n)
	for i := range w {
		w[i] = algorithms.Word(rng.Intn(2001) - 1000)
	}
	return w
}

// wideConfig is a GTX650-shaped device (width 32, M=6144, H=16) with global
// memory sized to the test's needs rather than the full card.
func wideConfig(globalWords int) simgpu.Config {
	cfg := simgpu.GTX650()
	need := ((globalWords + 63) / 64) * 64
	if need < 1<<16 {
		need = 1 << 16
	}
	cfg.GlobalWords = need
	return cfg
}

func tinyConfig(globalWords int) simgpu.Config {
	cfg := simgpu.Tiny()
	if globalWords > cfg.GlobalWords {
		cfg.GlobalWords = ((globalWords + 63) / 64) * 64
	}
	return cfg
}

// TestDifferentialVecAdd sweeps the standard vecadd sizes on the wide
// device: every launch's static prediction must match the simulator.
func TestDifferentialVecAdd(t *testing.T) {
	for _, n := range []int{100000, 200000, 300000} {
		alg := algorithms.VecAdd{N: n}
		cfg := wideConfig(alg.GlobalWords() + 64)
		h := newDiffHost(t, cfg)
		launches := attachChecker(t, h, cfg)
		a, b := randWords(n, 1), randWords(n, 2)
		if _, err := alg.Run(h, a, b); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if *launches == 0 {
			t.Fatalf("n=%d: no launches observed", n)
		}
	}
}

// TestDifferentialReduce sweeps the standard reduction sizes; the
// multi-round cascade exercises tail blocks and divergent-if masking.
func TestDifferentialReduce(t *testing.T) {
	for _, n := range []int{1 << 16, 1 << 17} {
		alg := algorithms.Reduce{N: n}
		cfg := wideConfig(alg.GlobalWords(32) + 64)
		h := newDiffHost(t, cfg)
		launches := attachChecker(t, h, cfg)
		if _, err := alg.Run(h, randWords(n, int64(n))); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if *launches < 2 {
			t.Fatalf("n=%d: expected a multi-launch cascade, saw %d", n, *launches)
		}
	}
}

// TestDifferentialMatMul sweeps the standard tiled matmul sizes, the
// heaviest shared-memory workload (loops, barriers, broadcast reads).
func TestDifferentialMatMul(t *testing.T) {
	for _, n := range []int{32, 64, 128} {
		alg := algorithms.MatMul{N: n}
		cfg := wideConfig(alg.GlobalWords() + 64)
		h := newDiffHost(t, cfg)
		launches := attachChecker(t, h, cfg)
		a, b := randWords(n*n, 3), randWords(n*n, 4)
		if _, err := alg.Run(h, a, b); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if *launches == 0 {
			t.Fatalf("n=%d: no launches observed", n)
		}
	}
}

// TestDifferentialPipelined runs the chunked multi-stream plans: many
// small launches with distinct base addresses and tail shapes.
func TestDifferentialPipelined(t *testing.T) {
	const n = 1 << 14
	for _, tc := range []struct {
		name     string
		declare  func(b int) (algorithms.Split, error)
		chunks   int
		in       [][]algorithms.Word
		launches int // at least one per chunk
	}{
		{"vecadd", algorithms.VecAdd{N: n}.Split, 4, [][]algorithms.Word{randWords(n, 5), randWords(n, 6)}, 4},
		{"reduce", algorithms.Reduce{N: n}.Split, 4, [][]algorithms.Word{randWords(n, 7)}, 4},
		{"matmul", algorithms.MatMul{N: 64}.Split, 2, [][]algorithms.Word{randWords(64*64, 8), randWords(64*64, 9)}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			split, err := tc.declare(32)
			if err != nil {
				t.Fatal(err)
			}
			plan := algorithms.Chunked{Split: split, Chunks: tc.chunks, Streams: 2}
			gw, err := plan.GlobalWords()
			if err != nil {
				t.Fatal(err)
			}
			cfg := wideConfig(gw + 64)
			h := newDiffHost(t, cfg)
			launches := attachChecker(t, h, cfg)
			if _, err := plan.Run(h, make([]algorithms.Word, plan.OutWords()), tc.in...); err != nil {
				t.Fatal(err)
			}
			if *launches < tc.launches {
				t.Fatalf("expected one launch per chunk, saw %d", *launches)
			}
		})
	}
}

// TestDifferentialBreadth covers the remaining built-ins — dot, scan,
// transpose (naive is uncoalesced by design), and every reduce variant
// (interleaved has bank conflicts by design) — on the tiny device, where
// odd sizes produce heavily masked tail blocks. The finding-consistency
// check inside the observer proves warnings appear exactly when the device
// observes degraded accesses.
func TestDifferentialBreadth(t *testing.T) {
	t.Run("dot", func(t *testing.T) {
		for _, n := range []int{16, 100, 1000} {
			alg := algorithms.Dot{N: n}
			cfg := tinyConfig(alg.GlobalWords(4) + 64)
			h := newDiffHost(t, cfg)
			launches := attachChecker(t, h, cfg)
			if _, err := alg.Run(h, randWords(n, 10), randWords(n, 11)); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if *launches == 0 {
				t.Fatalf("n=%d: no launches observed", n)
			}
		}
	})
	t.Run("scan", func(t *testing.T) {
		// The Hillis–Steele scan kernel is warp-synchronous by design: each
		// phase's lanes read neighbours' cells that other lanes rewrite in
		// the same phase, correct only under lockstep warp execution. The
		// race analyzer must flag it (a true positive under the
		// block-parallel model); the downstream add kernel must stay clean.
		raceOK := func(name string) bool { return strings.HasPrefix(name, "scan-n") }
		for _, n := range []int{16, 100, 1000} {
			alg := algorithms.Scan{N: n}
			cfg := tinyConfig(alg.GlobalWords(4) + 64)
			h := newDiffHost(t, cfg)
			launches, sawRace := attachCheckerRaces(t, h, cfg, raceOK)
			if _, err := alg.Run(h, randWords(n, 12)); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if *launches == 0 {
				t.Fatalf("n=%d: no launches observed", n)
			}
			if !*sawRace {
				t.Errorf("n=%d: warp-synchronous scan kernel not flagged by the race analyzer", n)
			}
		}
	})
	t.Run("transpose", func(t *testing.T) {
		for _, tiled := range []bool{false, true} {
			alg := algorithms.Transpose{N: 16, Tiled: tiled}
			cfg := tinyConfig(alg.GlobalWords() + 64)
			h := newDiffHost(t, cfg)
			launches := attachChecker(t, h, cfg)
			if _, err := alg.Run(h, randWords(16*16, 13)); err != nil {
				t.Fatalf("tiled=%v: %v", tiled, err)
			}
			if *launches == 0 {
				t.Fatalf("tiled=%v: no launches observed", tiled)
			}
		}
	})
	t.Run("reduce-variants", func(t *testing.T) {
		for _, s := range algorithms.ReduceStrategies() {
			alg := algorithms.ReduceVariant{N: 1000, Strategy: s}
			cfg := tinyConfig(alg.GlobalWords(4) + 64)
			h := newDiffHost(t, cfg)
			launches := attachChecker(t, h, cfg)
			if _, err := alg.Run(h, randWords(1000, 14)); err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			if *launches == 0 {
				t.Fatalf("%v: no launches observed", s)
			}
		}
	})
}

// TestDifferentialNegatedLoad analyses a one-block kernel that negates a
// loaded word and branches on the result, then runs it on 0/1-alternating
// data, where the branch diverges. The loaded word is unknown to the
// analysis, so x / −1 and x · −1 span the full range (MinInt64 · −1 wraps
// to MinInt64): a report that claims Precise must match every observed
// counter, the divergent branch included.
func TestDifferentialNegatedLoad(t *testing.T) {
	variants := []struct {
		name   string
		negate func(kb *kernel.Builder, cond, x kernel.Reg)
	}{
		{"divi", func(kb *kernel.Builder, cond, x kernel.Reg) { kb.Div(cond, x, kernel.Imm(-1)) }},
		{"muli-slt", func(kb *kernel.Builder, cond, x kernel.Reg) {
			kb.Mul(cond, x, kernel.Imm(-1))
			kb.Slt(cond, cond, kernel.Imm(0))
		}},
	}
	for _, v := range variants {
		name, negate := v.name, v.negate
		t.Run(name, func(t *testing.T) {
			kb := kernel.NewBuilder("negated-load-"+name, 0)
			lane, x, cond := kb.Reg("lane"), kb.Reg("x"), kb.Reg("cond")
			kb.LaneID(lane)
			kb.LdGlobal(x, lane)
			negate(kb, cond, x)
			kb.IfDo(cond, func() {
				kb.Add(lane, lane, kernel.Imm(64))
				kb.StGlobal(lane, cond)
			})
			prog := kb.MustBuild()

			cfg := simgpu.GTX650()
			cfg.GlobalWords = 128
			dev, err := simgpu.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cfg.WarpWidth; i++ {
				dev.Global().Raw()[i] = int64(i % 2)
			}
			res, err := dev.Launch(prog, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.DivergentBranches == 0 {
				t.Fatal("alternating data did not diverge the branch")
			}
			rep, err := analyze.Program(prog, analyze.Options{Machine: analyze.FromConfig(cfg), Blocks: 1})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Precise {
				t.Errorf("analysis claims Precise on a branch over loaded data")
				checkStats(t, prog.Name, 1, rep.Stats, res.Stats)
			}
		})
	}
}
