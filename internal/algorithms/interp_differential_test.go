package algorithms

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"atgpu/internal/analyze"
	"atgpu/internal/faults"
	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// The simulator is checked against refStepper, a functional reference for
// one launch: it runs the blocks one after another and each instruction
// lane by lane over the kernel opcode table, with its own mask stack,
// plain-slice memory and lane-order atomics. It knows nothing of
// scheduling, timing or memory pricing, so after every completed launch it
// checks what the simulator computed — global memory and the functional
// counters — while memoized arms must equal full simulation in every
// observable, times and pricing counters included.

// refStepper is the reference for one launch over a copy of global memory.
type refStepper struct {
	mem   []Word
	stats simgpu.KernelStats
}

// launch runs blocks thread blocks of prog at warp width w.
func (r *refStepper) launch(prog *kernel.Program, blocks, w int) error {
	r.stats = simgpu.KernelStats{}
	for blk := 0; blk < blocks; blk++ {
		if err := r.block(prog, blk, blocks, w); err != nil {
			return fmt.Errorf("block %d: %w", blk, err)
		}
	}
	return nil
}

// block runs one thread block to its halt.
func (r *refStepper) block(prog *kernel.Program, blk, blocks, w int) error {
	regs := make([][]Word, w) // regs[lane][reg]
	active := make([]bool, w)
	for l := range regs {
		regs[l] = make([]Word, prog.NumRegs)
		active[l] = true
	}
	shared := make([]Word, prog.SharedWords)
	var masks [][]bool
	for pc := 0; ; pc++ {
		in := prog.Instrs[pc]
		var lanes []int
		for l, on := range active {
			if on {
				lanes = append(lanes, l)
			}
		}
		r.stats.InstructionsIssued++
		r.stats.LaneOps += int64(len(lanes))
		switch op := in.Op; {
		case op.Semantics() != nil:
			sem := op.Semantics()
			for _, l := range lanes {
				b := in.Imm
				if !sem.Imm {
					b = regs[l][in.Rb]
				}
				if sem.Trap && b == 0 {
					return fmt.Errorf("pc %d lane %d: division by zero", pc, l)
				}
				regs[l][in.Rd] = sem.Lane(regs[l][in.Ra], b)
			}
		case op >= kernel.OpLaneID && op <= kernel.OpBlockDim: // declared in this order
			for _, l := range lanes {
				regs[l][in.Rd] = [...]Word{Word(l), Word(blk), Word(blocks), Word(w)}[op-kernel.OpLaneID]
			}
		case op.IsMemory(), op.IsAtomic():
			m := shared
			if op.IsGlobalMemory() || op.IsAtomic() && in.Imm == kernel.AtomGlobal {
				m = r.mem
			}
			if len(lanes) > 0 {
				switch {
				case op.IsAtomic():
					r.stats.AtomicAccesses++
				case op.IsGlobalMemory():
					r.stats.GlobalAccesses++
				default:
					r.stats.SharedAccesses++
				}
			}
			for _, l := range lanes { // ascending lane order: the last lane's store wins
				a, v := regs[l][in.Ra], regs[l][in.Rb]
				if a < 0 || a >= Word(len(m)) {
					return fmt.Errorf("pc %d lane %d: %v address %d out of range", pc, l, op, a)
				}
				switch op {
				case kernel.OpLdGlobal, kernel.OpLdShared:
					regs[l][in.Rd] = m[a]
				case kernel.OpStGlobal, kernel.OpStShared:
					m[a] = v
				case kernel.OpAtomAdd:
					regs[l][in.Rd], m[a] = m[a], m[a]+v
				case kernel.OpAtomMax:
					regs[l][in.Rd], m[a] = m[a], max(m[a], v)
				case kernel.OpAtomExch:
					regs[l][in.Rd], m[a] = m[a], v
				case kernel.OpAtomCAS:
					old := m[a]
					if old == regs[l][in.Rd] {
						m[a] = v
					}
					regs[l][in.Rd] = old
				}
			}
		case op == kernel.OpBarrier:
			r.stats.Barriers++
		case op == kernel.OpJump:
			pc = int(in.Target) - 1
		case op == kernel.OpBrNZ:
			if len(lanes) == 0 {
				return fmt.Errorf("pc %d: brnz with no active lane", pc)
			}
			taken := regs[lanes[0]][in.Ra] != 0
			for _, l := range lanes {
				if (regs[l][in.Ra] != 0) != taken {
					return fmt.Errorf("pc %d: divergent brnz", pc)
				}
			}
			if taken {
				pc = int(in.Target) - 1
			}
		case op == kernel.OpIfBegin:
			saved := append([]bool(nil), active...)
			taken := 0
			for _, l := range lanes {
				if regs[l][in.Ra] != 0 {
					taken++
				} else {
					active[l] = false
				}
			}
			if taken > 0 && taken < len(lanes) {
				r.stats.DivergentBranches++
			}
			if taken == 0 {
				active = saved
				pc = int(in.Target) - 1
			} else {
				masks = append(masks, saved)
			}
		case op == kernel.OpIfEnd:
			if len(masks) == 0 {
				return fmt.Errorf("pc %d: if.end without if.begin", pc)
			}
			active, masks = masks[len(masks)-1], masks[:len(masks)-1]
		case op == kernel.OpHalt:
			return nil
		case op != kernel.OpNop:
			return fmt.Errorf("pc %d: opcode %v unknown to the stepper", pc, op)
		}
	}
}

// armConfig selects one simulator arm.
type armConfig struct {
	sites     bool
	prover    bool
	faultSeed int64 // 0 = no injector
	// unordered marks a workload whose output order depends on the block
	// schedule by design (compact reserves output spans with a global
	// atomic), which the stepper's block-by-block order cannot predict:
	// the words that differ from the stepper's must be a permutation of
	// its values there.
	unordered bool
}

// armOutcome is everything observable from one arm's run.
type armOutcome struct {
	out       []Word
	results   []simgpu.KernelResult
	kernelT   int64
	totalT    int64
	faults    int
	memoSkips int64
}

// runArm runs workload on a fresh host whose device holds globalWords
// words, checking every completed launch against the reference stepper.
func runArm(t *testing.T, label string, base simgpu.Config, globalWords int, arm armConfig,
	workload func(h *simgpu.Host) ([]Word, error)) armOutcome {
	t.Helper()
	cfg := base
	cfg.GlobalWords = globalWords
	dev, err := simgpu.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if arm.prover {
		dev.SetUniformProver(analyze.UniformProver)
	}
	eng, err := transfer.NewEngine(transfer.PCIeGen3x8Link(), transfer.Pinned)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	h, err := simgpu.NewHost(dev, eng, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	if arm.sites {
		h.SetCollectSites(true)
	}
	if arm.faultSeed != 0 {
		inj, err := faults.NewRate(faults.RateConfig{Seed: arm.faultSeed, TransferRate: 0.02, KernelRate: 0.05})
		if err != nil {
			t.Fatalf("NewRate: %v", err)
		}
		if err := h.SetFaults(inj, 0, 0); err != nil {
			t.Fatalf("SetFaults: %v", err)
		}
	}
	ref := &refStepper{}
	var refErr error
	h.SetPreLaunch(func(prog *kernel.Program, blocks int) error {
		ref.mem = append(ref.mem[:0], dev.Global().Raw()...)
		refErr = ref.launch(prog, blocks, cfg.WarpWidth)
		return nil
	})
	var results []simgpu.KernelResult
	h.SetLaunchObserver(func(prog *kernel.Program, _ int, res simgpu.KernelResult) {
		results = append(results, res)
		checkStepper(t, fmt.Sprintf("%s %+v launch %d (%s)", label, arm, len(results), prog.Name),
			ref, refErr, dev.Global().Raw(), res, arm.unordered)
	})
	out, err := workload(h)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return armOutcome{
		out:       out,
		results:   results,
		kernelT:   int64(h.KernelTime()),
		totalT:    int64(h.TotalTime()),
		faults:    len(h.FaultEvents()),
		memoSkips: dev.MemoSkips(),
	}
}

// checkStepper compares one completed launch with the reference stepper's
// run of it: the functional counters, and global memory word for word, or
// up to a permutation of the differing words when unordered.
func checkStepper(t *testing.T, label string, ref *refStepper, refErr error, mem []Word,
	res simgpu.KernelResult, unordered bool) {
	t.Helper()
	if refErr != nil {
		t.Errorf("%s: stepper: %v", label, refErr)
		return
	}
	got, want := res.Stats, ref.stats
	if got.InstructionsIssued != want.InstructionsIssued || got.LaneOps != want.LaneOps ||
		got.Barriers != want.Barriers || got.DivergentBranches != want.DivergentBranches ||
		got.SharedAccesses != want.SharedAccesses || got.GlobalAccesses != want.GlobalAccesses ||
		got.AtomicAccesses != want.AtomicAccesses {
		t.Errorf("%s: counters diverge from the stepper:\nsim     %+v\nstepper %+v", label, got, want)
	}
	var simVals, refVals []Word
	for i, v := range mem {
		if v == ref.mem[i] {
			continue
		}
		if !unordered {
			t.Errorf("%s: global[%d] = %d, stepper %d", label, i, v, ref.mem[i])
			return
		}
		simVals, refVals = append(simVals, v), append(refVals, ref.mem[i])
	}
	slices.Sort(simVals)
	slices.Sort(refVals)
	if !slices.Equal(simVals, refVals) {
		t.Errorf("%s: the %d words that differ from the stepper's are not a permutation of them", label, len(simVals))
	}
}

func compareArms(t *testing.T, label string, want, got armOutcome) {
	t.Helper()
	if !reflect.DeepEqual(want.out, got.out) {
		t.Errorf("%s: outputs diverge", label)
	}
	if len(want.results) != len(got.results) {
		t.Fatalf("%s: %d vs %d launches", label, len(want.results), len(got.results))
	}
	for i := range want.results {
		if !reflect.DeepEqual(want.results[i], got.results[i]) {
			t.Errorf("%s: launch %d result diverges:\nwant %+v\ngot  %+v",
				label, i, want.results[i], got.results[i])
		}
	}
	if want.kernelT != got.kernelT || want.totalT != got.totalT {
		t.Errorf("%s: times diverge: kernel %d vs %d, total %d vs %d",
			label, want.kernelT, got.kernelT, want.totalT, got.totalT)
	}
	if want.faults != got.faults {
		t.Errorf("%s: fault event counts diverge: %d vs %d", label, want.faults, got.faults)
	}
}

// stepperWorkload is one builtin workload for the reference-stepper
// differentials, with the device global memory it needs.
type stepperWorkload struct {
	name  string
	words int
	run   func(h *simgpu.Host) ([]Word, error)
}

// matchStepperAcross runs the workloads mk builds (for input size n and
// warp width b) on both presets, with and without site collection and the
// BlockUniform prover, plus one fault-injected arm per workload and preset.
// Every launch must match the reference stepper (runArm checks it), and a
// prover arm, which may memoize, must equal the prover-off full simulation.
// It returns how many launches the prover arms memoized.
func matchStepperAcross(t *testing.T, mk func(n, b int) []stepperWorkload) int64 {
	t.Helper()
	var memoized int64
	for _, preset := range []simgpu.Config{simgpu.Tiny(), simgpu.GTX650()} {
		for _, n := range []int{64, 100, 1 << 12} {
			for _, w := range mk(n, preset.WarpWidth) {
				label := fmt.Sprintf("%s/%s/n=%d", preset.Name, w.name, n)
				unordered := w.name == "compact"
				for _, sites := range []bool{false, true} {
					arm := armConfig{sites: sites, unordered: unordered}
					full := runArm(t, label, preset, w.words, arm, w.run)
					arm.prover = true
					memo := runArm(t, label, preset, w.words, arm, w.run)
					compareArms(t, label+" prover", full, memo)
					memoized += memo.memoSkips
				}
				if n <= 100 {
					// Faulted relaunches are slow; one fault arm per
					// workload and preset covers the injector path.
					runArm(t, label, preset, w.words, armConfig{faultSeed: 7, unordered: unordered}, w.run)
				}
			}
		}
	}
	return memoized
}

// TestDecodedMatchesLegacyAcrossWorkloads pins the simulator against the
// reference stepper on the non-atomic builtins: vecadd, reduce, dot,
// matmul and scan. (The name dates from when the oracle was a second,
// switch-dispatched interpreter; the stepper has taken its place.)
func TestDecodedMatchesLegacyAcrossWorkloads(t *testing.T) {
	one := func(v Word, err error) ([]Word, error) { return []Word{v}, err }
	memoized := matchStepperAcross(t, func(n, b int) []stepperWorkload {
		a, x := randWords(n, 11), randWords(n, 13)
		words := 4*n + 1024
		m := 2 * b // matmul side: a multiple of the warp width
		return []stepperWorkload{
			{"vecadd", words, func(h *simgpu.Host) ([]Word, error) { return VecAdd{N: n}.Run(h, a, x) }},
			{"reduce", words, func(h *simgpu.Host) ([]Word, error) { return one(Reduce{N: n}.Run(h, a)) }},
			{"dot", words, func(h *simgpu.Host) ([]Word, error) { return one(Dot{N: n}.Run(h, a, x)) }},
			{"matmul", 3*m*m + 1024, func(h *simgpu.Host) ([]Word, error) {
				return MatMul{N: m}.Run(h, randWords(m*m, 17), randWords(m*m, 19))
			}},
			{"scan", words, func(h *simgpu.Host) ([]Word, error) { return Scan{N: n}.Run(h, a) }},
		}
	})
	if memoized == 0 {
		t.Error("no prover arm memoized a launch; the memo comparison is vacuous")
	}
}

// TestDecodedMatchesLegacyAtomicWorkloads extends the stepper pin to every
// atomic builtin: histogram (contended and privatized: atomadd under heavy
// and zero conflict), compact (atomadd offset reservation), top-k
// (atommax/atomcas slot updates) and montecarlo (atomadd global tally).
// The stepper applies atomics in lane order, so equality here proves the
// simulator's lane-order RMW semantics. (Named, like the test above, from
// the interpreter the stepper replaced as oracle.)
func TestDecodedMatchesLegacyAtomicWorkloads(t *testing.T) {
	one := func(v Word, err error) ([]Word, error) { return []Word{v}, err }
	matchStepperAcross(t, func(n, _ int) []stepperWorkload {
		a := randWords(n, 11)
		// Histogram inputs must be non-negative; skew most values into one
		// bin so the contended variant serialises whole warps.
		hist := make([]Word, n)
		for i := range hist {
			hist[i] = 3
			if i%4 == 0 {
				hist[i] = Word(i % 23)
			}
		}
		words := 4*n + 1024
		return []stepperWorkload{
			{"histogram", words, func(h *simgpu.Host) ([]Word, error) { return Histogram{N: n, Bins: 8}.Run(h, hist) }},
			{"histogram-priv", words, func(h *simgpu.Host) ([]Word, error) {
				return Histogram{N: n, Bins: 8, Privatized: true}.Run(h, hist)
			}},
			{"compact", words, func(h *simgpu.Host) ([]Word, error) { return Compact{N: n}.Run(h, a) }},
			{"topk", words, func(h *simgpu.Host) ([]Word, error) { return TopK{N: n, K: 4}.Run(h, a) }},
			{"montecarlo", words, func(h *simgpu.Host) ([]Word, error) { return one(MonteCarlo{N: n, Trials: 6}.Run(h)) }},
		}
	})
}

// TestMemoizedVecAddMatchesFullSimulation drives a certified launch big
// enough for steady-state memoization to engage and requires exact
// equality with full simulation.
func TestMemoizedVecAddMatchesFullSimulation(t *testing.T) {
	const n = 1 << 16 // H = 2048 blocks on GTX650's b=32
	a, b := randWords(n, 3), randWords(n, 5)
	run := func(h *simgpu.Host) ([]Word, error) { return VecAdd{N: n}.Run(h, a, b) }

	full := runArm(t, "vecadd", simgpu.GTX650(), 3*n+256, armConfig{}, run)
	memo := runArm(t, "vecadd", simgpu.GTX650(), 3*n+256, armConfig{prover: true}, run)

	if memo.memoSkips == 0 {
		t.Fatalf("memoization did not engage on a certified %d-block launch", n/32)
	}
	compareArms(t, "vecadd-memo", full, memo)

	want, err := VecAddReference(a, b)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !reflect.DeepEqual(memo.out, want) {
		t.Errorf("memoized output wrong")
	}
}

// TestMemoDisabledUnderFaultInjection proves the armed injector turns
// memoization off even for certified kernels.
func TestMemoDisabledUnderFaultInjection(t *testing.T) {
	const n = 1 << 16
	a, b := randWords(n, 3), randWords(n, 5)
	run := func(h *simgpu.Host) ([]Word, error) { return VecAdd{N: n}.Run(h, a, b) }
	got := runArm(t, "vecadd", simgpu.GTX650(), 3*n+256, armConfig{prover: true, faultSeed: 17}, run)
	if got.memoSkips != 0 {
		t.Fatalf("memoization engaged %d times under fault injection", got.memoSkips)
	}
}

// TestTracedLaunchDisablesMemoExactly: with a tracer attached memoization
// must switch itself off, and the trace must equal the prover-less trace.
func TestTracedLaunchDisablesMemoExactly(t *testing.T) {
	const n = 1 << 16
	a, b := randWords(n, 3), randWords(n, 5)

	runTraced := func(prover bool) (*simgpu.Tracer, int64, []Word) {
		cfg := simgpu.GTX650()
		cfg.GlobalWords = 3*n + 256
		dev, err := simgpu.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if prover {
			dev.SetUniformProver(analyze.UniformProver)
		}
		eng, err := transfer.NewEngine(transfer.PCIeGen3x8Link(), transfer.Pinned)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		h, err := simgpu.NewHost(dev, eng, 0)
		if err != nil {
			t.Fatalf("NewHost: %v", err)
		}
		tr := &simgpu.Tracer{CaptureMemory: true}
		h.SetTracer(tr)
		out, err := VecAdd{N: n}.Run(h, a, b)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return tr, dev.MemoSkips(), out
	}

	trFull, _, outFull := runTraced(false)
	trMemo, skips, outMemo := runTraced(true)
	if skips != 0 {
		t.Fatalf("memoization engaged %d times on a traced launch", skips)
	}
	if !reflect.DeepEqual(trFull, trMemo) {
		t.Errorf("traces diverge between prover-less and prover-armed traced runs")
	}
	if !reflect.DeepEqual(outFull, outMemo) {
		t.Errorf("outputs diverge on traced runs")
	}
}
