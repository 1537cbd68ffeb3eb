package simgpu

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"atgpu/internal/kernel"
)

// uniformKernel builds idx = blk·b + lane; out[base+idx] <- in[idx] + idx,
// the canonical block-uniform shape (disjoint per-block tiles, stride b).
func uniformKernel(t *testing.T, b, n int) *kernel.Program {
	t.Helper()
	kb := kernel.NewBuilder("memo-uniform", 0)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	idx := kb.Reg("idx")
	val := kb.Reg("val")
	addr := kb.Reg("addr")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(j))
	kb.LdGlobal(val, idx)
	kb.Add(val, val, kernel.R(idx))
	kb.Add(addr, idx, kernel.Imm(int64(n)))
	kb.StGlobal(addr, val)
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// alwaysUniform stands in for the analyzer's certificate in package-internal
// tests (the kernels used here are uniform by construction).
func alwaysUniform(*kernel.Program, Config, int) bool { return true }

func memoConfig(n int) Config {
	cfg := GTX650()
	cfg.GlobalWords = 2 * n
	return cfg
}

// vecaddSharedKernel mirrors the vecadd workload's kernel: stage a and b
// through shared memory, add there and write c back through shared, with
// threads past n masked by a single-block if. The buffers sit at 0, n and
// 2n.
func vecaddSharedKernel(t *testing.T, b, n int) *kernel.Program {
	t.Helper()
	kb := kernel.NewBuilder("memo-vecadd-shared", 3*b)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	idx := kb.Reg("idx")
	inRange := kb.Reg("inRange")
	addr := kb.Reg("addr")
	val := kb.Reg("val")
	sOff := kb.Reg("sOff")
	va := kb.Reg("va")
	vb := kb.Reg("vb")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(j))
	kb.Slt(inRange, idx, kernel.Imm(int64(n)))
	kb.IfDo(inRange, func() {
		kb.LdGlobal(val, idx)
		kb.StShared(j, val)
		kb.Add(addr, idx, kernel.Imm(int64(n)))
		kb.LdGlobal(val, addr)
		kb.Add(sOff, j, kernel.Imm(int64(b)))
		kb.StShared(sOff, val)
		kb.LdShared(va, j)
		kb.LdShared(vb, sOff)
		kb.Add(va, va, kernel.R(vb))
		kb.Add(sOff, j, kernel.Imm(int64(2*b)))
		kb.StShared(sOff, va)
		kb.LdShared(val, sOff)
		kb.Add(addr, idx, kernel.Imm(int64(2*n)))
		kb.StGlobal(addr, val)
	})
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// TestMemoMatchesFullSimulation runs each kernel on a memoizing and a
// plain device and requires memory, KernelStats and time to match
// exactly. The vecadd cases drive replay through shared loads and stores:
// all-active in every block, or with the last block's tail masked (n not
// a multiple of the warp width). A masked tail breaks block uniformity —
// the last block issues fewer lane ops and transactions than the period
// memo scales in — so analyze.BlockUniform refuses that kernel and only
// its memory, which replay's masked path writes, is required to match.
//
// The residue cases sweep the launch size on every preset, with a shared
// footprint of half an SM so two blocks are resident per SM and the
// period d stays short. Memo skips every whole period that fits, so the
// blocks it schedules are the recurrence point plus remaining mod d: the
// sweep must run at least 2·d sizes past the first skip and schedule d
// distinct counts, so that every residue, 0 included, is checked.
func TestMemoMatchesFullSimulation(t *testing.T) {
	type launch struct {
		prog                *kernel.Program
		globalWords, inputs int
	}
	vecadd := func(b, blocks int) launch {
		n := b * blocks
		return launch{vecaddSharedKernel(t, b, n), 3 * n, 2 * n}
	}
	type memoCase struct {
		name    string
		cfg     Config
		blocks  []int
		kernel  func(b, blocks int) launch
		uniform bool
		// residue: blocks runs until every residue of remaining mod d
		// has been checked.
		residue bool
	}
	cases := []memoCase{
		{"global", GTX650(), []int{512}, func(b, blocks int) launch {
			n := b * blocks
			return launch{uniformKernel(t, b, n), 2 * n, n}
		}, true, false},
		{"vecadd-shared", GTX650(), []int{512}, vecadd, true, false},
		// n = 511·32 + 7: 512 blocks, 7 active lanes in the last.
		{"vecadd-shared-masked-tail", GTX650(), []int{512}, func(b, blocks int) launch {
			n := (blocks-1)*b + 7
			return launch{vecaddSharedKernel(t, b, n), 3 * n, 2 * n}
		}, false, false},
	}
	for _, cfg := range append(Presets(), Tiny()) {
		// The period is about two blocks per SM; the sweep stops as soon
		// as it has covered 2·d sizes past the first skip.
		var sizes []int
		for blocks := memoMinBlocks; blocks <= memoMinBlocks+16*cfg.NumSMs; blocks++ {
			sizes = append(sizes, blocks)
		}
		half := cfg.SharedWords / 2
		cases = append(cases, memoCase{"residues/" + cfg.Name, cfg, sizes, func(b, blocks int) launch {
			l := vecadd(b, blocks)
			p := *l.prog
			p.SharedWords = half
			l.prog = &p
			return l
		}, true, true})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.cfg.WarpWidth
			run := func(l launch, blocks int, withProver bool) (KernelResult, []kernel.Word, int64, int64) {
				cfg := tc.cfg
				cfg.GlobalWords = l.globalWords
				dev, err := New(cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if withProver {
					dev.SetUniformProver(alwaysUniform)
				}
				raw := dev.Global().Raw()
				for i := 0; i < l.inputs; i++ {
					raw[i] = int64(i * 3)
				}
				res, err := dev.Launch(l.prog, blocks)
				if err != nil {
					t.Fatalf("%d blocks: Launch: %v", blocks, err)
				}
				out := append([]kernel.Word(nil), dev.Global().Raw()...)
				return res, out, dev.MemoSkips(), dev.memoElided
			}

			firstSkip, prevElided, period, last := 0, int64(0), int64(0), 0
			scheduled := map[int]bool{}
			for _, blocks := range tc.blocks {
				if tc.residue && period > 0 && last-firstSkip+1 >= 2*int(period) {
					break
				}
				last = blocks
				l := tc.kernel(b, blocks)
				full, fullMem, fullSkips, _ := run(l, blocks, false)
				memo, memoMem, memoSkips, elided := run(l, blocks, true)

				if fullSkips != 0 {
					t.Fatalf("%d blocks: prover-less device memoized %d launches", blocks, fullSkips)
				}
				if tc.uniform && full.Stats != memo.Stats {
					t.Errorf("%d blocks: stats diverge:\nfull: %+v\nmemo: %+v", blocks, full.Stats, memo.Stats)
				}
				if tc.uniform && full.Time != memo.Time {
					t.Errorf("%d blocks: time diverges: full %v, memo %v", blocks, full.Time, memo.Time)
				}
				for i := range fullMem {
					if fullMem[i] != memoMem[i] {
						t.Fatalf("%d blocks: global[%d] diverges: full %d, memo %d", blocks, i, fullMem[i], memoMem[i])
					}
				}
				switch {
				case !tc.residue:
					if memoSkips != 1 {
						t.Fatalf("memoizing device engaged %d times, want 1", memoSkips)
					}
				case memoSkips == 0:
					if firstSkip > 0 {
						t.Fatalf("%d blocks: no skip, though %d blocks skipped", blocks, firstSkip)
					}
				default:
					if firstSkip == 0 {
						firstSkip = blocks
					} else if jump := elided - prevElided; jump != 0 {
						// One more block left adds a whole period.
						if period != 0 && jump != period {
							t.Fatalf("%d blocks: elided count jumped by %d, earlier by %d", blocks, jump, period)
						}
						period = jump
					}
					prevElided = elided
					scheduled[blocks-int(elided)] = true
				}
			}
			if !tc.residue {
				return
			}
			if period == 0 || last-firstSkip+1 < 2*int(period) {
				t.Fatalf("sizes up to %d reach %d sizes past the first skip at %d, want ≥ 2·d (d = %d)",
					last, last-firstSkip+1, firstSkip, period)
			}
			if int64(len(scheduled)) != period {
				t.Fatalf("%d distinct scheduled counts, want one per residue of d = %d", len(scheduled), period)
			}
		})
	}
}

// TestMemoReplaySharedStoreTrap: a fully active warp storing past its
// shared allocation traps under memo replay exactly as under full
// simulation. Only the last block's address is out of range, so full
// simulation reaches it in the scheduler and memo in replay.
func TestMemoReplaySharedStoreTrap(t *testing.T) {
	const b, blocks = 32, 512
	kb := kernel.NewBuilder("memo-shared-trap", b)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	addr := kb.Reg("addr")
	kb.LaneID(j)
	kb.BlockID(blk)
	// addr = lane + b·(blk == blocks-1): in range except in the last block.
	kb.Seq(addr, blk, kernel.Imm(blocks-1))
	kb.Mul(addr, addr, kernel.Imm(b))
	kb.Add(addr, addr, kernel.R(j))
	kb.StShared(addr, j)
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	launch := func(withProver bool) (int64, error) {
		cfg := GTX650()
		cfg.GlobalWords = b
		dev, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if withProver {
			dev.SetUniformProver(alwaysUniform)
		}
		_, err = dev.Launch(prog, blocks)
		return dev.MemoSkips(), err
	}
	_, fullErr := launch(false)
	skips, memoErr := launch(true)
	if skips != 1 {
		t.Fatalf("memoization engaged %d times, want 1 (the trap must be reached in replay)", skips)
	}
	for name, err := range map[string]error{"full": fullErr, "memo": memoErr} {
		if !errors.Is(err, ErrKernelTrap) {
			t.Fatalf("%s: err = %v, want ErrKernelTrap", name, err)
		}
		if want := "shared st.shared lane 0 addr 32 (M-alloc=32)"; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want it to name %q", name, err, want)
		}
	}
	if !strings.Contains(memoErr.Error(), "memo replay") {
		t.Errorf("memo err = %v, want the trap raised in memo replay", memoErr)
	}
}

// withProcs runs f with GOMAXPROCS set to procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestMemoReplayConcurrentMatchesSerial: the elided blocks replay on one
// goroutine at GOMAXPROCS 1 and on several at 4; both must leave the same
// memory, KernelStats and time as full simulation.
func TestMemoReplayConcurrentMatchesSerial(t *testing.T) {
	const b, blocks = 32, 512
	n := b * blocks
	prog := vecaddSharedKernel(t, b, n)
	run := func(withProver bool) (KernelResult, []kernel.Word) {
		cfg := GTX650()
		cfg.GlobalWords = 3 * n
		dev, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if withProver {
			dev.SetUniformProver(alwaysUniform)
		}
		raw := dev.Global().Raw()
		for i := 0; i < 2*n; i++ {
			raw[i] = int64(i*7 - 3)
		}
		res, err := dev.Launch(prog, blocks)
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		if withProver && dev.MemoSkips() != 1 {
			t.Fatalf("memoization engaged %d times, want 1", dev.MemoSkips())
		}
		return res, append([]kernel.Word(nil), raw...)
	}
	full, fullMem := run(false)
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			memo, memoMem := run(true)
			if memo.Stats != full.Stats || memo.Time != full.Time {
				t.Errorf("GOMAXPROCS=%d: memo %+v / %v, full %+v / %v", procs, memo.Stats, memo.Time, full.Stats, full.Time)
			}
			for i := range fullMem {
				if memoMem[i] != fullMem[i] {
					t.Fatalf("GOMAXPROCS=%d: global[%d] = %d, full simulation %d", procs, i, memoMem[i], fullMem[i])
				}
			}
		})
	}
}

// TestMemoReplayConcurrentReportsLowestBlock: a kernel that breaks the
// certificate it was handed — every block from 200 on loads out of range —
// fails in replay (blocks 0–63 are simulated: the schedule first recurs
// at block 64, with period 32, and all 14 periods left are skipped). Each
// concurrent chunk fails at its own first block, so the error must be the
// lowest one, with the block, pc and text a serial replay reports.
func TestMemoReplayConcurrentReportsLowestBlock(t *testing.T) {
	const b, blocks, bad = 32, 512, 200
	n := b * blocks
	kb := kernel.NewBuilder("memo-oob", 0)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	idx := kb.Reg("idx")
	off := kb.Reg("off")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(b))
	kb.Add(idx, idx, kernel.R(j))
	// off = 2n·(blk ≥ bad): past global memory from block bad on.
	kb.Slt(off, blk, kernel.Imm(bad))
	kb.Seq(off, off, kernel.Imm(0))
	kb.Mul(off, off, kernel.Imm(int64(2*n)))
	kb.Add(off, off, kernel.R(idx))
	kb.LdGlobal(off, off)
	kb.StGlobal(idx, off)
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	launch := func() error {
		dev, err := New(memoConfig(n))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		dev.SetUniformProver(alwaysUniform)
		_, err = dev.Launch(prog, blocks)
		if dev.MemoSkips() != 1 || dev.memoElided != blocks-64 {
			t.Fatalf("memoization engaged %d times, replaying %d blocks; want 1, replaying %d",
				dev.MemoSkips(), dev.memoElided, blocks-64)
		}
		return err
	}
	var serial, concurrent error
	withProcs(1, func() { serial = launch() })
	withProcs(4, func() { concurrent = launch() })
	if !errors.Is(serial, ErrKernelTrap) || !strings.Contains(serial.Error(), "memo replay") {
		t.Fatalf("serial replay err = %v, want a memo-replay trap", serial)
	}
	if want := "block 200 pc"; !strings.Contains(serial.Error(), want) {
		t.Fatalf("serial replay err = %v, want it at %q", serial, want)
	}
	if concurrent == nil || concurrent.Error() != serial.Error() {
		t.Errorf("concurrent replay err = %v\nwant the serial one: %v", concurrent, serial)
	}
}

func TestMemoDisabledByTracerSitesAndFaults(t *testing.T) {
	const b, blocks = 32, 512
	n := b * blocks
	prog := uniformKernel(t, b, n)

	cases := []struct {
		name string
		prep func(dev *Device) (trace *Tracer)
	}{
		{"tracer", func(dev *Device) *Tracer { return &Tracer{} }},
		{"sites", func(dev *Device) *Tracer { dev.SetCollectSites(true); return nil }},
		{"fault-armed", func(dev *Device) *Tracer { dev.memoDisabled = true; return nil }},
	}
	for _, tc := range cases {
		dev, err := New(memoConfig(n))
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		dev.SetUniformProver(alwaysUniform)
		tr := tc.prep(dev)
		if _, err := dev.LaunchTraced(prog, blocks, tr); err != nil {
			t.Fatalf("%s: launch: %v", tc.name, err)
		}
		if got := dev.MemoSkips(); got != 0 {
			t.Errorf("%s: memoization engaged (%d), want disabled", tc.name, got)
		}
	}
}

func TestMemoSmallLaunchNotEligible(t *testing.T) {
	const b = 32
	blocks := memoMinBlocks - 1
	n := b * blocks
	prog := uniformKernel(t, b, n)
	dev, err := New(memoConfig(n))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dev.SetUniformProver(alwaysUniform)
	if _, err := dev.Launch(prog, blocks); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if got := dev.MemoSkips(); got != 0 {
		t.Errorf("memoization engaged on %d blocks (min %d)", blocks, memoMinBlocks)
	}
}

// TestWideWarpGlobalAccess is the regression test for the execGlobal
// coalescing scratch: at warp widths beyond 64 the old fixed [64]int
// overflowed as soon as more than 64 distinct memory blocks were touched by
// one warp access.
func TestWideWarpGlobalAccess(t *testing.T) {
	const width = 128
	cfg := Tiny()
	cfg.WarpWidth = width
	// One word per memory block from each lane: addresses l*width are all
	// in distinct blocks, so the access needs 128 scratch slots.
	cfg.GlobalWords = width * width
	dev, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	kb := kernel.NewBuilder("wide", 0)
	j := kb.Reg("lane")
	addr := kb.Reg("addr")
	val := kb.Reg("val")
	kb.LaneID(j)
	kb.Mul(addr, j, kernel.Imm(width))
	kb.LdGlobal(val, addr)
	kb.StGlobal(addr, val)
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := dev.Launch(prog, 1)
	if err != nil {
		t.Fatalf("launch at width %d: %v", width, err)
	}
	// 128 lanes hitting 128 distinct blocks: maximally uncoalesced.
	if res.Stats.GlobalTransactions != 2*width {
		t.Errorf("GlobalTransactions = %d, want %d", res.Stats.GlobalTransactions, 2*width)
	}
}

// TestMaskedImmediateDivideByZero pins that divi/modi with a zero
// immediate traps a launch only when an active lane executes it; the
// kernel package's table tests pin the trapping lane.
func TestMaskedImmediateDivideByZero(t *testing.T) {
	build := func(masked bool) *kernel.Program {
		kb := kernel.NewBuilder("divi0", 0)
		cond := kb.Reg("cond")
		v := kb.Reg("v")
		if masked {
			kb.Const(cond, 0) // all lanes false: body never executes
		} else {
			kb.Const(cond, 1)
		}
		kb.IfDo(cond, func() {
			kb.Div(v, v, kernel.Imm(0))
		})
		prog, err := kb.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return prog
	}

	dev, err := New(Tiny())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := dev.Launch(build(true), 1); err != nil {
		t.Errorf("masked divi #0 trapped: %v", err)
	}
	if _, err := dev.Launch(build(false), 1); !errors.Is(err, ErrKernelTrap) {
		t.Errorf("active divi #0 = %v, want ErrKernelTrap", err)
	}
}
