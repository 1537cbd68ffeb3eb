package simgpu

import (
	"slices"
	"testing"

	"atgpu/internal/kernel"
)

// Memo replay reads an aligned run in place, as a view (formView,
// formGlobalView), and runs mul t, x, y; add acc, acc, t in one pass when
// x or y has one value per block (execMulAdd). The tests below build
// kernels that lean on each way a view can go stale, or a fused pair can
// alias, and require a memoizing device to leave memory, KernelStats and
// time exactly as full simulation does.

// replayLaunch is one launch of a replay test: its kernel, global memory
// size, and input (raw is zeroed global memory).
type replayLaunch struct {
	prog  *kernel.Program
	words int
	init  func(raw []kernel.Word)
}

// replayBlocks is each preset's launch size in the replay tests: enough
// waves to memoize, and a replay of many batches.
func replayBlocks(cfg Config) int {
	if cfg.Name == Tiny().Name {
		return 64
	}
	return 512
}

// checkReplayIdentity launches build's kernel on GTX650 and tiny, with and
// without a certificate, and requires the memoizing launch to match full
// simulation in memory, KernelStats and time. blocks, when not nil, picks
// the launch size; the default is replayBlocks.
func checkReplayIdentity(t *testing.T, build func(t *testing.T, b, blocks int) replayLaunch, blocks func(cfg Config, l replayLaunch) int) {
	t.Helper()
	for _, base := range []Config{GTX650(), Tiny()} {
		b := base.WarpWidth
		nb := replayBlocks(base)
		l := build(t, b, nb)
		if blocks != nil {
			nb = blocks(base, l)
			l = build(t, b, nb)
		}
		run := func(withProver bool) (KernelResult, []kernel.Word, int64) {
			cfg := base
			cfg.GlobalWords = l.words
			dev, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if withProver {
				dev.SetUniformProver(alwaysUniform)
			}
			l.init(dev.Global().Raw())
			res, err := dev.Launch(l.prog, nb)
			if err != nil {
				t.Fatalf("%s %d blocks (certified %v): %v", base.Name, nb, withProver, err)
			}
			return res, append([]kernel.Word(nil), dev.Global().Raw()...), dev.MemoSkips()
		}
		full, fullMem, _ := run(false)
		memo, memoMem, skips := run(true)
		if skips != 1 {
			t.Fatalf("%s %d blocks: memoization engaged %d times, want 1", base.Name, nb, skips)
		}
		if full.Stats != memo.Stats || full.Time != memo.Time {
			t.Errorf("%s %d blocks: memo %+v / %v, full %+v / %v", base.Name, nb, memo.Stats, memo.Time, full.Stats, full.Time)
		}
		for i := range fullMem {
			if fullMem[i] != memoMem[i] {
				t.Fatalf("%s %d blocks: global[%d] = %d, full simulation %d", base.Name, nb, i, memoMem[i], fullMem[i])
			}
		}
	}
}

// ramp fills raw's first words words with distinct values.
func ramp(words int) func(raw []kernel.Word) {
	return func(raw []kernel.Word) {
		for i := range words {
			raw[i] = kernel.Word(i*7 - 3)
		}
	}
}

// mustBuild builds kb's program.
func mustBuild(t *testing.T, kb *kernel.Builder) *kernel.Program {
	t.Helper()
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// blockIndex emits idx = blockid·b + laneid and returns lane and idx.
func blockIndex(kb *kernel.Builder, b int) (lane, blk, idx kernel.Reg) {
	lane, blk, idx = kb.Reg("lane"), kb.Reg("block"), kb.Reg("idx")
	kb.LaneID(lane)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(lane))
	return lane, blk, idx
}

// TestReplayViewGlobalStoreFromView: views of an abutting global run and
// of a shared row stored where the blocks' runs do not abut (block step
// 2b), so each store moves block by block from its source's written-out
// column.
func TestReplayViewGlobalStoreFromView(t *testing.T) {
	checkReplayIdentity(t, func(t *testing.T, b, blocks int) replayLaunch {
		n := b * blocks
		kb := kernel.NewBuilder("replay-view-scatter-store", b)
		lane, blk, idx := blockIndex(kb, b)
		v, s, addr := kb.Reg("v"), kb.Reg("s"), kb.Reg("addr")
		kb.LdGlobal(v, idx) // a global view
		kb.StShared(lane, v)
		kb.LdShared(s, lane) // a shared view
		kb.Mul(addr, blk, kernel.Imm(int64(2*b)))
		kb.Add(addr, addr, kernel.R(lane))
		kb.Add(addr, addr, kernel.Imm(int64(n)))
		kb.StGlobal(addr, v)
		kb.Add(addr, addr, kernel.Imm(int64(b)))
		kb.StGlobal(addr, s)
		return replayLaunch{mustBuild(t, kb), 3 * n, ramp(n)}
	}, nil)
}

// accumulateKernel stages a run of input into shared row 0 and one into
// row 1, loads row 1 as the accumulator (a view of the slab), adds the
// products of row 0's first words (broadcasts, one value per block) with
// row 0 itself, b of them as matmul's inner product does, and stores the
// sum and a fresh load of row 1, which the sum must not have landed in.
func accumulateKernel(t *testing.T, b, blocks int) replayLaunch {
	n := b * blocks
	kb := kernel.NewBuilder("replay-view-accumulate", 2*b)
	lane, _, idx := blockIndex(kb, b)
	v, addr, acc, x, y, tmp, orig := kb.Reg("v"), kb.Reg("addr"), kb.Reg("acc"), kb.Reg("x"), kb.Reg("y"), kb.Reg("tmp"), kb.Reg("orig")
	kb.LdGlobal(v, idx)
	kb.StShared(lane, v)
	kb.Add(addr, idx, kernel.Imm(int64(n)))
	kb.LdGlobal(v, addr)
	kb.Add(addr, lane, kernel.Imm(int64(b)))
	kb.StShared(addr, v)
	kb.LdShared(acc, addr) // a view of row 1
	for m := 0; m < b; m++ {
		kb.Const(tmp, int64(m))
		kb.LdShared(x, tmp)  // row 0's word m, per block
		kb.LdShared(y, lane) // a view of row 0
		kb.Mul(x, x, kernel.R(y))
		kb.Add(acc, acc, kernel.R(x))
	}
	kb.LdShared(orig, addr)
	kb.Add(addr, idx, kernel.Imm(int64(2*n)))
	kb.StGlobal(addr, acc)
	kb.Add(addr, idx, kernel.Imm(int64(3*n)))
	kb.StGlobal(addr, orig)
	return replayLaunch{mustBuild(t, kb), 4 * n, ramp(2 * n)}
}

// TestReplayViewAccumulator: the accumulator of fused pairs is itself a
// view, as matmul's ld.shared acc leaves it; the sum belongs in its
// register, not in the slab row it views.
func TestReplayViewAccumulator(t *testing.T) {
	checkReplayIdentity(t, accumulateKernel, nil)
}

// TestReplayViewSharedStoreIntoViewedRow: stores into slab rows that
// registers view — an aligned run over the whole row, an unaligned run
// across two rows, and a scattered store — must leave the views' old
// values in them.
func TestReplayViewSharedStoreIntoViewedRow(t *testing.T) {
	checkReplayIdentity(t, func(t *testing.T, b, blocks int) replayLaunch {
		n := b * blocks
		kb := kernel.NewBuilder("replay-view-shared-overwrite", 4*b)
		lane, _, idx := blockIndex(kb, b)
		v, u, s0, s1, s3, addr := kb.Reg("v"), kb.Reg("u"), kb.Reg("s0"), kb.Reg("s1"), kb.Reg("s3"), kb.Reg("addr")
		kb.LdGlobal(v, idx)
		kb.StShared(lane, v)
		kb.Add(addr, lane, kernel.Imm(int64(3*b)))
		kb.StShared(addr, v)
		kb.LdShared(s3, addr) // a view of row 3
		kb.Add(addr, lane, kernel.Imm(int64(b)))
		kb.StShared(addr, v)
		kb.LdShared(s0, lane) // a view of row 0
		kb.Add(addr, idx, kernel.Imm(int64(n)))
		kb.LdGlobal(u, addr)
		kb.StShared(lane, u) // overwrites row 0
		// Overwrites row 3 in a scattered order: lane l at (l·3) mod b.
		kb.Mul(addr, lane, kernel.Imm(3))
		kb.Mod(addr, addr, kernel.Imm(int64(b)))
		kb.Add(addr, addr, kernel.Imm(int64(3*b)))
		kb.StShared(addr, u)
		kb.Add(addr, lane, kernel.Imm(int64(b)))
		kb.LdShared(s1, addr) // a view of row 1
		kb.Add(addr, lane, kernel.Imm(int64(b+1)))
		kb.StShared(addr, u) // overwrites row 1 from word 1 on, and row 2
		kb.Add(u, s0, kernel.R(s1))
		kb.Add(addr, idx, kernel.Imm(int64(2*n)))
		kb.StGlobal(addr, u)
		kb.Add(addr, idx, kernel.Imm(int64(3*n)))
		kb.StGlobal(addr, s1)
		kb.Add(addr, idx, kernel.Imm(int64(4*n)))
		kb.StGlobal(addr, s3)
		return replayLaunch{mustBuild(t, kb), 5 * n, ramp(2 * n)}
	}, nil)
}

// TestReplayViewInPlaceGlobalUpdate: A[i] is loaded, overwritten, and the
// loaded register used after the store, so the view must keep the old
// words.
func TestReplayViewInPlaceGlobalUpdate(t *testing.T) {
	checkReplayIdentity(t, func(t *testing.T, b, blocks int) replayLaunch {
		n := b * blocks
		kb := kernel.NewBuilder("replay-view-in-place", 0)
		_, _, idx := blockIndex(kb, b)
		v, u, addr := kb.Reg("v"), kb.Reg("u"), kb.Reg("addr")
		kb.LdGlobal(v, idx) // a view of A[i]
		kb.Mul(u, v, kernel.Imm(3))
		kb.Add(u, u, kernel.Imm(1))
		kb.StGlobal(idx, u)
		kb.Add(u, v, kernel.Imm(5))
		kb.Add(addr, idx, kernel.Imm(int64(n)))
		kb.StGlobal(addr, u)
		return replayLaunch{mustBuild(t, kb), 2 * n, ramp(n)}
	}, nil)
}

// TestReplayViewMaskedWrite: a masked load and a masked add into
// registers that are views; the masked-off lanes keep the viewed words.
func TestReplayViewMaskedWrite(t *testing.T) {
	checkReplayIdentity(t, func(t *testing.T, b, blocks int) replayLaunch {
		n := b * blocks
		kb := kernel.NewBuilder("replay-view-masked", 0)
		lane, _, idx := blockIndex(kb, b)
		v, v2, c, addr := kb.Reg("v"), kb.Reg("v2"), kb.Reg("c"), kb.Reg("addr")
		kb.LdGlobal(v, idx)  // a view
		kb.LdGlobal(v2, idx) // another
		kb.Add(addr, idx, kernel.Imm(int64(n)))
		kb.Slt(c, lane, kernel.Imm(int64(b-1)))
		kb.IfDo(c, func() {
			kb.LdGlobal(v, addr)
			kb.Add(v2, v2, kernel.Imm(100))
		})
		kb.Add(addr, idx, kernel.Imm(int64(2*n)))
		kb.StGlobal(addr, v)
		kb.Add(addr, idx, kernel.Imm(int64(3*n)))
		kb.StGlobal(addr, v2)
		return replayLaunch{mustBuild(t, kb), 4 * n, ramp(2 * n)}
	}, nil)
}

// TestReplayViewCondition: views as an if condition (lanes alternate,
// alike in every block) and as a branch condition (nonzero on every lane,
// so the branch skips a store).
func TestReplayViewCondition(t *testing.T) {
	checkReplayIdentity(t, func(t *testing.T, b, blocks int) replayLaunch {
		n := b * blocks
		kb := kernel.NewBuilder("replay-view-condition", 0)
		_, _, idx := blockIndex(kb, b)
		flag, nz, k, addr := kb.Reg("flag"), kb.Reg("nz"), kb.Reg("k"), kb.Reg("addr")
		kb.LdGlobal(flag, idx) // a view
		kb.Add(addr, idx, kernel.Imm(int64(2*n)))
		kb.IfDo(flag, func() {
			kb.Add(k, flag, kernel.Imm(10))
			kb.StGlobal(addr, k)
		})
		kb.Add(addr, idx, kernel.Imm(int64(n)))
		kb.LdGlobal(nz, addr) // a view, the branch condition
		kb.Add(addr, idx, kernel.Imm(int64(3*n)))
		kb.IfDo(nz, func() {
			kb.Const(k, 7)
			kb.StGlobal(addr, k)
		})
		kb.Add(addr, idx, kernel.Imm(int64(4*n)))
		kb.StGlobal(addr, nz)
		prog := mustBuild(t, kb)
		// nz's if region becomes a branch over its body, taken on every
		// lane: if.begin nz; const; st.global; if.end.
		br := slices.IndexFunc(prog.Instrs, func(in kernel.Instr) bool { return in.Op == kernel.OpIfBegin && in.Ra == nz })
		prog.Instrs[br].Op = kernel.OpBrNZ
		prog.Instrs[br+3].Op = kernel.OpNop
		if err := prog.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
		return replayLaunch{prog, 5 * n, func(raw []kernel.Word) {
			for i := range n {
				raw[i] = kernel.Word(i % 2)
				raw[n+i] = kernel.Word(i + 1)
			}
		}}
	}, nil)
}

// TestReplayViewRaggedLastBatch: the accumulating kernel at a launch size
// whose last replay batch holds fewer blocks than the others, so views
// and fused pairs span a shrunken batch.
func TestReplayViewRaggedLastBatch(t *testing.T) {
	checkReplayIdentity(t, accumulateKernel, func(cfg Config, l replayLaunch) int {
		blocks := replayBlocks(cfg) - 3
		batch := batchBlocks(l.prog, cfg.WarpWidth, blocks-1)
		if batch < 2 || blocks%batch == 0 {
			t.Fatalf("%s: %d blocks in batches of %d leave no ragged last batch", cfg.Name, blocks, batch)
		}
		return blocks
	})
}

// TestReplayMulAddAliases: fused pairs whose product register is also
// its per-block factor x or its column y (a view, and a written-out
// register), a pair squaring x, and a pair whose accumulator is x, which
// runs unfused.
func TestReplayMulAddAliases(t *testing.T) {
	checkReplayIdentity(t, func(t *testing.T, b, blocks int) replayLaunch {
		n := b * blocks
		kb := kernel.NewBuilder("replay-muladd-alias", b)
		lane, _, idx := blockIndex(kb, b)
		v, acc, t0, t1, t2, t3, x, c, addr := kb.Reg("v"), kb.Reg("acc"), kb.Reg("t0"), kb.Reg("t1"), kb.Reg("t2"), kb.Reg("t3"), kb.Reg("x"), kb.Reg("c"), kb.Reg("addr")
		kb.LdGlobal(v, idx)
		kb.StShared(lane, v)
		kb.Add(addr, idx, kernel.Imm(int64(n)))
		kb.LdGlobal(acc, addr) // a global view: written out by the first pair
		kb.Const(c, 1)
		// t is x.
		kb.LdShared(t0, c)
		kb.Mul(t0, t0, kernel.R(v))
		kb.Add(acc, acc, kernel.R(t0))
		// t is y, a view.
		kb.LdShared(x, c)
		kb.LdShared(t1, lane)
		kb.Mul(t1, x, kernel.R(t1))
		kb.Add(acc, acc, kernel.R(t1))
		// t is y, written out.
		kb.Add(t2, v, kernel.Imm(3))
		kb.Mul(t2, t2, kernel.R(x))
		kb.Add(acc, acc, kernel.R(t2))
		// x squared.
		kb.Const(c, 2)
		kb.LdShared(x, c)
		kb.Mul(t3, x, kernel.R(x))
		kb.Add(acc, acc, kernel.R(t3))
		// acc is x: not fused.
		kb.LdShared(x, c)
		kb.Mul(t3, x, kernel.R(v))
		kb.Add(x, x, kernel.R(t3))
		for i, r := range []kernel.Reg{acc, t0, t1, t2, t3, x} {
			kb.Add(addr, idx, kernel.Imm(int64((2+i)*n)))
			kb.StGlobal(addr, r)
		}
		return replayLaunch{mustBuild(t, kb), 8 * n, ramp(2 * n)}
	}, nil)
}
