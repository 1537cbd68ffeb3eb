package simgpu

import (
	"errors"
	"fmt"
	"math"
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
var alwaysUniform = UniformProver(func(*kernel.Program, Config, int) bool { return true })

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

// gridKernel builds a tile grid tiles wide over blocks of b lanes: block
// k is tile (k / tiles, k % tiles), whose lanes load the word of input
// tile (row, col), add 1000·row + col, pass the sum through shared
// memory and store it n words further on, all lanes but the last (a mask
// every block shares). The tile coordinates come from divi and modi of
// the block index, so a replay batch keeps them symbolic only where its
// blocks share a row.
func gridKernel(t *testing.T, b, n, tiles int) *kernel.Program {
	t.Helper()
	kb := kernel.NewBuilder("memo-grid", b)
	j, blk, row, col := kb.Reg("lane"), kb.Reg("block"), kb.Reg("row"), kb.Reg("col")
	idx, val, tmp := kb.Reg("idx"), kb.Reg("val"), kb.Reg("tmp")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Div(row, blk, kernel.Imm(int64(tiles)))
	kb.Mod(col, blk, kernel.Imm(int64(tiles)))
	kb.Mul(idx, row, kernel.Imm(int64(tiles*b)))
	kb.Mul(tmp, col, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(tmp))
	kb.Add(idx, idx, kernel.R(j))
	kb.LdGlobal(val, idx)
	kb.Mul(tmp, row, kernel.Imm(1000))
	kb.Add(val, val, kernel.R(tmp))
	kb.Add(val, val, kernel.R(col))
	kb.StShared(j, val)
	kb.LdShared(val, j)
	kb.Slt(tmp, j, kernel.Imm(int64(b-1)))
	kb.IfDo(tmp, func() {
		kb.Add(idx, idx, kernel.Imm(int64(n)))
		kb.StGlobal(idx, val)
	})
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// sharedMixKernel passes each block's input through shared memory in
// every access shape replay treats apart: aligned runs, an unaligned run
// and a reversed one, broadcasts that read one address of each block's own
// memory and one whose address steps by block (both formRows), a
// scattered column, and reduce's prefix-masked tree levels. It reads
// input at 0 and writes n words further on.
func sharedMixKernel(t *testing.T, b, n int) *kernel.Program {
	t.Helper()
	kb := kernel.NewBuilder("memo-shared-mix", 3*b)
	j, blk, idx, val, addr, tmp := kb.Reg("lane"), kb.Reg("block"), kb.Reg("idx"), kb.Reg("val"), kb.Reg("addr"), kb.Reg("tmp")
	lt, other, sum := kb.Reg("lt"), kb.Reg("other"), kb.Reg("sum")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(j))
	kb.LdGlobal(val, idx)
	kb.StShared(j, val) // aligned run at 0
	kb.Add(addr, j, kernel.Imm(int64(b+3)))
	kb.StShared(addr, idx) // unaligned run at b+3
	kb.Barrier()
	kb.Const(addr, 5)
	kb.LdShared(tmp, addr) // each block's word 5
	kb.Add(val, val, kernel.R(tmp))
	kb.Mod(addr, blk, kernel.Imm(64))
	kb.LdShared(tmp, addr) // word blk mod 64 of each block
	kb.Mul(tmp, tmp, kernel.Imm(7))
	kb.Add(val, val, kernel.R(tmp))
	kb.Mul(addr, j, kernel.Imm(5))
	kb.Mod(addr, addr, kernel.Imm(int64(b)))
	kb.LdShared(tmp, addr) // scattered
	kb.Add(val, val, kernel.R(tmp))
	kb.Const(addr, int64(2*b+2))
	kb.Sub(addr, addr, kernel.R(j))
	kb.LdShared(tmp, addr) // reversed, unaligned
	kb.Mul(tmp, tmp, kernel.Imm(3))
	kb.Add(val, val, kernel.R(tmp))
	kb.Barrier()
	kb.StShared(j, val)
	kb.Barrier()
	for stride := b / 2; stride >= 1; stride /= 2 {
		kb.Slt(lt, j, kernel.Imm(int64(stride)))
		kb.IfDo(lt, func() {
			kb.Add(other, j, kernel.Imm(int64(stride)))
			kb.LdShared(val, j)
			kb.LdShared(sum, other)
			kb.Add(val, val, kernel.R(sum))
			kb.StShared(j, val)
		})
		kb.Barrier()
	}
	kb.Add(addr, j, kernel.Imm(int64(b+3)))
	kb.LdShared(val, addr) // unaligned run
	kb.Const(addr, 0)
	kb.LdShared(tmp, addr) // the block's sum
	kb.Add(val, val, kernel.R(tmp))
	kb.Add(addr, idx, kernel.Imm(int64(n)))
	kb.StGlobal(addr, val)
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// TestMemoMatchesFullSimulation runs each kernel on a memoizing and a
// plain device and requires memory, KernelStats and time to match
// exactly. The vecadd cases drive replay through shared loads and stores
// in every block. A masked tail (n not a multiple of the warp width)
// breaks block uniformity — the last block masks lanes no other block
// does — so analyze.BlockUniform refuses that kernel; handed a
// certificate anyway, replay must fail loudly rather than batch the last
// block with blocks whose mask differs.
//
// The residue cases sweep the launch size on every preset, with a shared
// footprint of half an SM so two blocks are resident per SM and the
// period d stays short. Memo skips every whole period that fits, so the
// blocks it schedules are the recurrence point plus remaining mod d: the
// sweep must run at least 2·d sizes past the first skip and schedule d
// distinct counts, so that every residue, 0 included, is checked.
//
// The grid cases run a tile grid 12 tiles wide on every preset: replay
// batches of 4 or 8 blocks straddle tile rows, so the row and column
// indices (blockid divided and reduced by 12) differ within a batch and
// are written out lane by lane, and the sizes must include one whose
// replayed range starts and ends inside a batch and crosses a row.
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
		// row, when set, requires a size whose replayed range starts and
		// ends inside a batch and crosses a multiple of row.
		row int
		// widest requires replay batches of memoBatchMax blocks.
		widest bool
	}
	const gridTiles = 12
	cases := []memoCase{
		{name: "global", cfg: GTX650(), blocks: []int{512}, kernel: func(b, blocks int) launch {
			n := b * blocks
			return launch{uniformKernel(t, b, n), 2 * n, n}
		}, uniform: true},
		{name: "vecadd-shared", cfg: GTX650(), blocks: []int{512}, kernel: vecadd, uniform: true},
		// Long enough a replay for the widest batch.
		{name: "shared-mix", cfg: GTX650(), blocks: []int{1200, 1237}, kernel: func(b, blocks int) launch {
			n := b * blocks
			return launch{sharedMixKernel(t, b, n), 2 * n, n}
		}, uniform: true, widest: true},
		// n = 511·32 + 7: 512 blocks, 7 active lanes in the last.
		{name: "vecadd-shared-masked-tail", cfg: GTX650(), blocks: []int{512}, kernel: func(b, blocks int) launch {
			n := (blocks-1)*b + 7
			return launch{vecaddSharedKernel(t, b, n), 3 * n, 2 * n}
		}},
	}
	for _, cfg := range append(Presets(), Tiny()) {
		// Two blocks fit an SM, and the period is a wave of them; the
		// sweep starts a wave below the smallest launch memoization
		// fingerprints and stops as soon as it has covered 2·d sizes past
		// the first skip.
		half := cfg.SharedWords / 2
		wave := cfg.Occupancy(half) * cfg.NumSMs
		var sizes []int
		for blocks := (memoMinWaves - 1) * wave; blocks <= (memoMinWaves+3)*wave; blocks++ {
			sizes = append(sizes, blocks)
		}
		cases = append(cases, memoCase{name: "residues/" + cfg.Name, cfg: cfg, blocks: sizes, kernel: func(b, blocks int) launch {
			l := vecadd(b, blocks)
			p := *l.prog
			p.SharedWords = half
			l.prog = &p
			return l
		}, uniform: true, residue: true})
		var grid []int
		for blocks := max(16*cfg.NumSMs, 256) + 1; len(grid) < 6; blocks += 5 {
			grid = append(grid, blocks)
		}
		gridLaunch := func(b, blocks int) launch {
			n := b * blocks
			p := *gridKernel(t, b, n, gridTiles)
			p.SharedWords = half
			return launch{&p, 2 * n, n}
		}
		cases = append(cases, memoCase{name: "grid/" + cfg.Name, cfg: cfg, blocks: grid, kernel: gridLaunch, uniform: true, row: gridTiles})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.cfg.WarpWidth
			run := func(l launch, blocks int, withProver bool) (KernelResult, []kernel.Word, int64, int64, error) {
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
				out := append([]kernel.Word(nil), dev.Global().Raw()...)
				return res, out, dev.MemoSkips(), dev.memoElided, err
			}

			firstSkip, prevElided, period, last := 0, int64(0), int64(0), 0
			scheduled := map[int]bool{}
			midBatch := false
			for _, blocks := range tc.blocks {
				if tc.residue && period > 0 && last-firstSkip+1 >= 2*int(period) {
					break
				}
				last = blocks
				l := tc.kernel(b, blocks)
				full, fullMem, fullSkips, _, err := run(l, blocks, false)
				if err != nil {
					t.Fatalf("%d blocks: full simulation: %v", blocks, err)
				}
				memo, memoMem, memoSkips, elided, err := run(l, blocks, true)
				if !tc.uniform {
					// Only the last block's mask differs, so the batch
					// holding it fails, naming it.
					want := fmt.Sprintf("block %d pc", blocks-1)
					if !errors.Is(err, ErrKernelTrap) || !errors.Is(err, errBlockVariant) || !strings.Contains(err.Error(), want) {
						t.Fatalf("%d blocks: memo launch err = %v, want a certificate violation at %q", blocks, err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%d blocks: Launch: %v", blocks, err)
				}

				if fullSkips != 0 {
					t.Fatalf("%d blocks: prover-less device memoized %d launches", blocks, fullSkips)
				}
				if full.Stats != memo.Stats {
					t.Errorf("%d blocks: stats diverge:\nfull: %+v\nmemo: %+v", blocks, full.Stats, memo.Stats)
				}
				if full.Time != memo.Time {
					t.Errorf("%d blocks: time diverges: full %v, memo %v", blocks, full.Time, memo.Time)
				}
				for i := range fullMem {
					if fullMem[i] != memoMem[i] {
						t.Fatalf("%d blocks: global[%d] diverges: full %d, memo %d", blocks, i, fullMem[i], memoMem[i])
					}
				}
				// A memoized launch replays blocks [1, blocks).
				const from = 1
				batch := batchBlocks(l.prog, b, blocks-from)
				if tc.widest && batch != memoBatchMax {
					t.Fatalf("%d blocks: %d replayed blocks run in batches of %d, want %d", blocks, blocks-from, batch, memoBatchMax)
				}
				if tc.row > 0 && memoSkips > 0 &&
					from%batch != 0 && blocks%batch != 0 &&
					(from/tc.row+1)*tc.row < blocks {
					midBatch = true
				}
				switch {
				case !tc.residue:
					if memoSkips != 1 {
						t.Fatalf("%d blocks: memoizing device engaged %d times, want 1", blocks, memoSkips)
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
			if tc.row > 0 && !midBatch {
				t.Errorf("no size in %v replays a range that starts and ends inside a batch and crosses a multiple of %d", tc.blocks, tc.row)
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

// TestMemoReplayConcurrentReportsLowestBlock: kernels that break the
// certificate they were handed fail in replay, which moves the data of
// every block but block 0 whatever the timing pass skips (here the
// schedule first recurs at block 64, with period 32, and all 14 periods
// left are skipped), and the error must be the lowest failing block's,
// with the block, pc and text a block-by-block replay reports, whether the
// replay runs on one goroutine or on several goroutines taking batches
// from one queue. In the first kernel every block from 200 on loads out
// of range. In the second, blocks from 205 on do, while block 202 stores
// out of range later in the trace: in the batch holding blocks 200–207
// the higher blocks trap first, and the error must still be block 202's.
// In the third every block from 40 on loads out of range: block 40 lies
// below the recurrence, among the blocks whose timing the scheduler
// steps, and its trap is still replay's.
func TestMemoReplayConcurrentReportsLowestBlock(t *testing.T) {
	const b, blocks = 32, 512
	n := b * blocks
	cases := []struct {
		name string
		// loadFrom is the first block whose load is out of range;
		// storeAt, if not 0, the one block whose store is.
		loadFrom, storeAt int
		want              string
	}{
		{"load-from-200", 200, 0, "block 200 pc 8 (memo replay): address out of range: global ld.global lane 0 addr 39168 (G=32768)"},
		{"later-trap-in-lower-block", 205, 202, "block 202 pc 12 (memo replay): address out of range: global st.global lane 0 addr 39232 (G=32768)"},
		{"load-from-40", 40, 0, "block 40 pc 8 (memo replay): address out of range: global ld.global lane 0 addr 34048 (G=32768)"},
	}
	for _, tc := range cases {
		kb := kernel.NewBuilder("memo-oob", 0)
		j := kb.Reg("lane")
		blk := kb.Reg("block")
		idx := kb.Reg("idx")
		off := kb.Reg("off")
		kb.LaneID(j)
		kb.BlockID(blk)
		kb.Mul(idx, blk, kernel.Imm(b))
		kb.Add(idx, idx, kernel.R(j))
		// off = 2n·(blk ≥ loadFrom): past global memory from that block on.
		kb.Slt(off, blk, kernel.Imm(int64(tc.loadFrom)))
		kb.Seq(off, off, kernel.Imm(0))
		kb.Mul(off, off, kernel.Imm(int64(2*n)))
		kb.Add(off, off, kernel.R(idx))
		kb.LdGlobal(off, off)
		if tc.storeAt != 0 {
			// idx += 2n·(blk == storeAt).
			at := kb.Reg("at")
			kb.Seq(at, blk, kernel.Imm(int64(tc.storeAt)))
			kb.Mul(at, at, kernel.Imm(int64(2*n)))
			kb.Add(idx, idx, kernel.R(at))
		}
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
				t.Fatalf("%s: memoization engaged %d times, eliding %d blocks; want 1, eliding %d",
					tc.name, dev.MemoSkips(), dev.memoElided, blocks-64)
			}
			return err
		}
		var serial, concurrent error
		withProcs(1, func() { serial = launch() })
		withProcs(4, func() { concurrent = launch() })
		if !errors.Is(serial, ErrKernelTrap) || !strings.HasSuffix(serial.Error(), tc.want) {
			t.Fatalf("%s: serial replay err = %v, want a memo-replay trap ending %q", tc.name, serial, tc.want)
		}
		if concurrent == nil || concurrent.Error() != serial.Error() {
			t.Errorf("%s: concurrent replay err = %v\nwant the serial one: %v", tc.name, concurrent, serial)
		}
	}
}

// TestMemoReplayFailsOnBlockVariantControl: a batch shares one pc and one
// SIMT mask, so a kernel whose if-condition or loop trip count differs
// between blocks breaks the certificate it was handed, and replay must
// fail the launch as a certificate violation, not diverge silently, while
// full simulation runs it.
func TestMemoReplayFailsOnBlockVariantControl(t *testing.T) {
	const b, blocks = 32, 512
	n := b * blocks
	// Block 0, whose cost trace times the launch, and every block up to
	// 299 take one path; blocks from 300 on take another.
	cases := map[string]func(kb *kernel.Builder, blk, val kernel.Reg){
		"if": func(kb *kernel.Builder, blk, val kernel.Reg) {
			c := kb.Reg("late")
			kb.Slt(c, blk, kernel.Imm(300))
			kb.IfDo(c, func() { kb.Const(val, 1) })
		},
		"loop": func(kb *kernel.Builder, blk, val kernel.Reg) {
			trips := kb.Reg("trips")
			kb.Slt(trips, blk, kernel.Imm(300))
			kb.Add(trips, trips, kernel.Imm(1))
			kb.ForDo(kernel.Imm(0), kernel.R(trips), 1, func(kernel.Reg) {
				kb.Add(val, val, kernel.Imm(1))
			})
		},
	}
	for name, body := range cases {
		kb := kernel.NewBuilder("memo-variant-"+name, 0)
		j, blk, idx, val := kb.Reg("lane"), kb.Reg("block"), kb.Reg("idx"), kb.Reg("val")
		kb.LaneID(j)
		kb.BlockID(blk)
		kb.Mul(idx, blk, kernel.Imm(b))
		kb.Add(idx, idx, kernel.R(j))
		kb.Const(val, 0)
		body(kb, blk, val)
		kb.StGlobal(idx, val)
		prog, err := kb.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		for _, withProver := range []bool{false, true} {
			dev, err := New(memoConfig(n))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if withProver {
				dev.SetUniformProver(alwaysUniform)
			}
			_, err = dev.Launch(prog, blocks)
			switch {
			case !withProver && err != nil:
				t.Fatalf("%s: full simulation: %v", name, err)
			case withProver && dev.MemoSkips() != 1:
				t.Fatalf("%s: memoization engaged %d times, want 1", name, dev.MemoSkips())
			case withProver && (!errors.Is(err, errBlockVariant) || !strings.Contains(err.Error(), "(memo replay): condition differs between batched blocks (certificate violated)")):
				t.Fatalf("%s: memo launch err = %v, want a certificate violation in replay", name, err)
			}
		}
	}
}

// TestMemoWarpsReusedAcrossDevices: devices built one after another, as
// a Runner's sweep points are, take the warp that records block 0, their
// cursor warps and their replay batch warps from the idle pools and put
// them back, so only the first memoized launch allocates any.
func TestMemoWarpsReusedAcrossDevices(t *testing.T) {
	exactIdlePools(t)
	const b, blocks = 32, 512
	n := b * blocks
	prog := vecaddSharedKernel(t, b, n)
	// Blocks 0–63 are timed (a warm-up wave of 32 and one period).
	const elided = blocks - 64
	shapes := []warpShape{
		{b, 1, prog.NumRegs, prog.SharedWords},
		cursorShape,
		{b, batchBlocks(prog, b, blocks-1), prog.NumRegs, prog.SharedWords},
	}
	pooled := func() map[*warp]bool {
		ws := map[*warp]bool{}
		for _, shape := range shapes {
			idle := takeWarps(nil, shape, math.MaxInt)
			for _, w := range idle {
				ws[w] = true
			}
			putWarps(shape, idle)
		}
		return ws
	}
	for _, shape := range shapes {
		takeWarps(nil, shape, math.MaxInt) // drop what earlier tests left
	}
	var first map[*warp]bool
	for i := 0; i < 3; i++ {
		cfg := GTX650()
		cfg.GlobalWords = 3 * n
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev.SetUniformProver(alwaysUniform)
		if _, err := dev.Launch(prog, blocks); err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		if dev.MemoSkips() != 1 || dev.memoElided != elided {
			t.Fatalf("device %d: memoization engaged %d times, eliding %d blocks; want 1, eliding %d", i, dev.MemoSkips(), dev.memoElided, elided)
		}
		if raceEnabled {
			continue
		}
		got := pooled()
		if i == 0 {
			if len(got) == 0 {
				t.Fatal("the first memoized launch left no idle warps")
			}
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("device %d: %d pooled warps, want the first device's %d", i, len(got), len(first))
		}
		for w := range got {
			if !first[w] {
				t.Fatalf("device %d allocated a warp instead of reusing one", i)
			}
		}
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

// TestBatchBlocks pins replay batch sizes at warp width 32: a vecadd or
// reduce block (9 or 11 registers and 96 or 32 shared words, 384 words)
// replays 8 at a time when its launch elides 64 blocks, as atgpud's
// n=4096 jobs do, and 64 at a time when it elides thousands; a matmul
// block (34 registers and 3072 shared words, 4160 words) 8 at a time when
// its launch elides a few, as GTX650's n=256 launch does, and 16, the
// budget's most, when it elides many; and a block too big for the budget
// one at a time.
func TestBatchBlocks(t *testing.T) {
	for _, tc := range []struct {
		regs, shared, elided, want int
	}{
		{9, 96, 64, memoBatchShort},
		{11, 32, 64, memoBatchShort},
		{9, 96, 16 * 16, 16},
		{9, 96, 16*64 - 1, 32},
		{9, 96, 3040, memoBatchMax},
		{11, 32, 65472, memoBatchMax},
		{34, 3072, 8, 8},
		{34, 3072, 65536, 16},
		{1, 1 << 17, 4096, 1},
	} {
		prog := &kernel.Program{NumRegs: tc.regs, SharedWords: tc.shared}
		if got := batchBlocks(prog, 32, tc.elided); got != tc.want {
			t.Errorf("%d registers, %d shared words, %d elided: batches of %d, want %d", tc.regs, tc.shared, tc.elided, got, tc.want)
		}
	}
}

// TestMemoSmallLaunchNotEligible: memoization fingerprints a launch of
// memoMinWaves waves or more and no smaller one, a wave being what the
// launch holds resident at once (here 2 SMs × 16 blocks). A launch of
// exactly three waves skips its last.
func TestMemoSmallLaunchNotEligible(t *testing.T) {
	const b = 32
	cfg := GTX650()
	wave := cfg.NumSMs * cfg.MaxBlocksPerSM
	for _, tc := range []struct {
		blocks        int
		skips, elided int64
		proved        bool
	}{
		{memoMinWaves*wave - 1, 0, 0, false},
		{memoMinWaves * wave, 1, int64(wave), true},
	} {
		n := b * tc.blocks
		prog := uniformKernel(t, b, n)
		dev, err := New(memoConfig(n))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		proved := false
		dev.SetUniformProver(func(*kernel.Program, Config, int) bool { proved = true; return true })
		if _, err := dev.Launch(prog, tc.blocks); err != nil {
			t.Fatalf("%d blocks: launch: %v", tc.blocks, err)
		}
		if dev.MemoSkips() != tc.skips || dev.memoElided != tc.elided || proved != tc.proved {
			t.Errorf("%d blocks (wave %d): memoization engaged %d times, eliding %d blocks, prover asked %v; want %d, %d, %v",
				tc.blocks, wave, dev.MemoSkips(), dev.memoElided, proved, tc.skips, tc.elided, tc.proved)
		}
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
