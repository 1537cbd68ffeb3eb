package analyze

import (
	"errors"
	"strings"
	"testing"

	"atgpu/internal/algorithms"
	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
)

// buildVecAddLike is the canonical certifiable kernel: idx = blk·b + lane,
// guarded by idx < n, staging through shared, disjoint per-block output
// tiles.
func buildVecAddLike(t *testing.T, b, n int) *kernel.Program {
	t.Helper()
	kb := kernel.NewBuilder("uni-vecadd", 3*b)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	idx := kb.Reg("idx")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(j))
	inRange := kb.Reg("inRange")
	kb.Slt(inRange, idx, kernel.Imm(int64(n)))
	addr := kb.Reg("addr")
	val := kb.Reg("val")
	kb.IfDo(inRange, func() {
		kb.LdGlobal(val, idx)
		kb.StShared(j, val)
		kb.LdShared(val, j)
		kb.Add(addr, idx, kernel.Imm(int64(n)))
		kb.StGlobal(addr, val)
	})
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

func TestBlockUniformCertifiesVecAdd(t *testing.T) {
	const b, n = 32, 1 << 14
	prog := buildVecAddLike(t, b, n)
	cert, err := BlockUniform(prog, b, 2*n, n/b)
	if err != nil {
		t.Fatalf("BlockUniform refused a uniform kernel: %v", err)
	}
	if cert.Blocks != n/b || cert.Width != b || cert.Instrs == 0 {
		t.Fatalf("bad certificate: %+v", cert)
	}
}

func TestBlockUniformRefusesRaggedTail(t *testing.T) {
	// n not divisible by b: the tail block's guard masks some lanes, so the
	// trace is NOT identical across blocks and the prover must refuse.
	const b = 32
	n := 1<<14 - 7
	prog := buildVecAddLike(t, b, n)
	blocks := (n + b - 1) / b
	if _, err := BlockUniform(prog, b, 1<<16, blocks); !errors.Is(err, ErrNotUniform) {
		t.Fatalf("BlockUniform = %v, want ErrNotUniform", err)
	}
}

func TestBlockUniformRefusesCrossBlockReads(t *testing.T) {
	// Each block reads its right neighbour's output slot: load stride b,
	// constant offset shifted by exactly b → quotient 1 ∈ [1, H-1].
	const b, blocks = 8, 16
	kb := kernel.NewBuilder("uni-neighbour", 0)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	idx := kb.Reg("idx")
	val := kb.Reg("val")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(b))
	kb.Add(idx, idx, kernel.R(j))
	kb.StGlobal(idx, j)
	addr := kb.Reg("addr")
	kb.Add(addr, idx, kernel.Imm(b)) // neighbour block's slot
	kb.LdGlobal(val, addr)
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := BlockUniform(prog, b, (blocks+1)*b, blocks); !errors.Is(err, ErrNotUniform) {
		t.Fatalf("BlockUniform = %v, want ErrNotUniform for cross-block read", err)
	}
	// The same kernel IS uniform for a single block.
	if _, err := BlockUniform(prog, b, 2*b, 1); err != nil {
		t.Fatalf("single block should certify: %v", err)
	}
}

func TestBlockUniformRefusesSharedStoreToAllBlocks(t *testing.T) {
	// A fixed global address written by every block: order-dependent.
	kb := kernel.NewBuilder("uni-fixedstore", 0)
	blk := kb.Reg("block")
	kb.BlockID(blk)
	kb.StGlobal(blk, blk) // address = k: stride 1, not a width multiple — also refused
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := BlockUniform(prog, 4, 1024, 8); !errors.Is(err, ErrNotUniform) {
		t.Fatalf("BlockUniform = %v, want ErrNotUniform", err)
	}

	kb2 := kernel.NewBuilder("uni-fixedstore2", 0)
	z := kb2.Reg("zero")
	kb2.Const(z, 0)
	kb2.StGlobal(z, z) // every block writes word 0
	prog2, err := kb2.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := BlockUniform(prog2, 4, 1024, 8); !errors.Is(err, ErrNotUniform) {
		t.Fatalf("BlockUniform = %v, want ErrNotUniform for fixed-address store", err)
	}
	// But it is certifiable for one block.
	if _, err := BlockUniform(prog2, 4, 1024, 1); err != nil {
		t.Fatalf("single-block fixed store should certify: %v", err)
	}
}

func TestBlockUniformRefusesDataDependentControl(t *testing.T) {
	// Branching on loaded data can diverge across blocks.
	kb := kernel.NewBuilder("uni-datadep", 0)
	j := kb.Reg("lane")
	v := kb.Reg("v")
	kb.LaneID(j)
	kb.LdGlobal(v, j)
	kb.IfDo(v, func() {
		kb.Add(j, j, kernel.Imm(1))
	})
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := BlockUniform(prog, 4, 1024, 64); !errors.Is(err, ErrNotUniform) {
		t.Fatalf("BlockUniform = %v, want ErrNotUniform for data-dependent branch", err)
	}
}

// TestBlockUniformRefusalNamesTopOrigin pins that a refusal names the
// instruction the unknown value came from. Tiled matmul splits the block
// index into a tile row and column with divi/modi, which the affine
// domain cannot express, so its first global address is refused for that
// reason rather than for loaded data; a value really loaded from global
// memory keeps the "loaded data" wording.
func TestBlockUniformRefusalNamesTopOrigin(t *testing.T) {
	const b, n = 32, 256
	nn := n * n
	mm := algorithms.MatMul{N: n}
	prog, err := mm.Kernel(b, 0, nn, 2*nn)
	if err != nil {
		t.Fatal(err)
	}
	_, err = BlockUniform(prog, b, 3*nn, mm.Blocks(b))
	if !errors.Is(err, ErrNotUniform) {
		t.Fatalf("matmul n=%d: BlockUniform = %v, want ErrNotUniform", n, err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "global address is not affine in the block index: divi at pc") &&
		!strings.Contains(msg, "global address is not affine in the block index: modi at pc") {
		t.Errorf("matmul refusal = %q, want it to name the divi/modi origin", msg)
	}
	if strings.Contains(msg, "loaded data") {
		t.Errorf("matmul refusal = %q blames loaded data", msg)
	}

	kb := kernel.NewBuilder("uni-gather", 0)
	j := kb.Reg("lane")
	v := kb.Reg("v")
	kb.LaneID(j)
	kb.LdGlobal(v, j)
	kb.Add(v, v, kernel.Imm(1))
	kb.LdGlobal(v, v)
	gather, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	_, err = BlockUniform(gather, 4, 1024, 64)
	if err == nil || !strings.Contains(err.Error(), "global address depends on loaded data") {
		t.Errorf("gather refusal = %v, want the loaded-data wording", err)
	}
}

func TestBlockUniformMaskedConstDivide(t *testing.T) {
	// divi #0 under an always-false mask must not refuse certification for
	// the wrong reason (it never executes on an active lane) — the whole
	// if-body is skipped, mirroring the device.
	kb := kernel.NewBuilder("uni-maskeddiv", 0)
	z := kb.Reg("zero")
	v := kb.Reg("v")
	kb.Const(z, 0)
	kb.IfDo(z, func() {
		kb.Div(v, v, kernel.Imm(0))
	})
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := BlockUniform(prog, 4, 1024, 64); err != nil {
		t.Fatalf("masked divi #0 should certify: %v", err)
	}
}

// buildAtomicVecAddLike is buildVecAddLike with a single conflict-free
// shared atomadd spliced in — the ONLY difference from the certifiable
// baseline, so a refusal is attributable to the atomic alone.
func buildAtomicVecAddLike(t *testing.T, b, n int) *kernel.Program {
	t.Helper()
	kb := kernel.NewBuilder("uni-vecadd-atomic", 3*b)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	idx := kb.Reg("idx")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(j))
	inRange := kb.Reg("inRange")
	kb.Slt(inRange, idx, kernel.Imm(int64(n)))
	addr := kb.Reg("addr")
	val := kb.Reg("val")
	old := kb.Reg("old")
	kb.IfDo(inRange, func() {
		kb.LdGlobal(val, idx)
		kb.AtomAdd(kernel.AtomShared, old, j, val) // per-lane cells: no conflicts
		kb.LdShared(val, j)
		kb.Add(addr, idx, kernel.Imm(int64(n)))
		kb.StGlobal(addr, val)
	})
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// TestBlockUniformRefusesAtomics pins the certification boundary: the
// vecadd-like baseline certifies (TestBlockUniformCertifiesVecAdd), and the
// same kernel with one shared atomadd — even conflict-free, on per-lane
// cells — must be refused.
func TestBlockUniformRefusesAtomics(t *testing.T) {
	const b, n = 32, 1 << 14
	prog := buildAtomicVecAddLike(t, b, n)
	if _, err := BlockUniform(prog, b, 2*n, n/b); !errors.Is(err, ErrNotUniform) {
		t.Fatalf("BlockUniform = %v, want ErrNotUniform for a kernel with atomics", err)
	}
}

// TestMemoFallsBackToFullSimulationOnAtomics is the end-to-end pin for the
// memoization boundary under the REAL prover: a memoization-eligible kernel
// engages block memoization, its atomic twin does not — it silently falls
// back to full simulation with results byte-identical to a prover-less
// device.
func TestMemoFallsBackToFullSimulationOnAtomics(t *testing.T) {
	const b, blocks = 32, 512
	n := b * blocks
	cfg := simgpu.GTX650()
	cfg.GlobalWords = 2 * n

	run := func(prog *kernel.Program, withProver bool) (simgpu.KernelResult, []kernel.Word, int64) {
		dev, err := simgpu.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if withProver {
			dev.SetUniformProver(UniformProver)
		}
		raw := dev.Global().Raw()
		for i := 0; i < n; i++ {
			raw[i] = int64(i*5 - 100)
		}
		res, err := dev.Launch(prog, blocks)
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		out := append([]kernel.Word(nil), dev.Global().Raw()...)
		return res, out, dev.MemoSkips()
	}

	// Control: the atomics-free baseline is certified and memoized.
	base := buildVecAddLike(t, b, n)
	if _, _, skips := run(base, true); skips != 1 {
		t.Fatalf("baseline kernel engaged memoization %d times, want 1", skips)
	}

	// Pin: the atomic twin must fall back to full simulation...
	atomic := buildAtomicVecAddLike(t, b, n)
	memoRes, memoMem, skips := run(atomic, true)
	if skips != 0 {
		t.Fatalf("atomic kernel engaged memoization %d times, want full-simulation fallback", skips)
	}
	// ...and be byte-identical to a device that never memoizes.
	fullRes, fullMem, _ := run(atomic, false)
	if memoRes.Stats != fullRes.Stats {
		t.Errorf("stats diverge:\nprover: %+v\nplain:  %+v", memoRes.Stats, fullRes.Stats)
	}
	if memoRes.Time != fullRes.Time {
		t.Errorf("time diverges: prover %v, plain %v", memoRes.Time, fullRes.Time)
	}
	for i := range fullMem {
		if fullMem[i] != memoMem[i] {
			t.Fatalf("global[%d] diverges: prover %d, plain %d", i, memoMem[i], fullMem[i])
		}
	}
}
