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
// instruction the unknown value came from. Dividing blockID + 1 is outside
// the grid domain (only the block index itself splits), and a second split
// by a different divisor is Top, so each kernel's global address is refused
// for that op; a value really loaded from global memory keeps the "loaded
// data" wording.
func TestBlockUniformRefusalNamesTopOrigin(t *testing.T) {
	const w, blocks = 4, 64
	build := func(name string, body func(kb *kernel.Builder, blk, idx kernel.Reg)) *kernel.Program {
		kb := kernel.NewBuilder(name, 0)
		j := kb.Reg("lane")
		blk := kb.Reg("block")
		idx := kb.Reg("idx")
		kb.LaneID(j)
		kb.BlockID(blk)
		body(kb, blk, idx)
		kb.Mul(idx, idx, kernel.Imm(w))
		kb.Add(idx, idx, kernel.R(j))
		kb.StGlobal(idx, j)
		prog, err := kb.Build()
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		return prog
	}
	cases := []struct {
		name string
		prog *kernel.Program
		want string
	}{
		{"divi-of-shifted-block", build("uni-divi-shifted", func(kb *kernel.Builder, blk, idx kernel.Reg) {
			kb.Add(idx, blk, kernel.Imm(1))
			kb.Div(idx, idx, kernel.Imm(8)) // pc 3
		}), "global address is not affine in the block index: divi at pc 3"},
		{"second-split", build("uni-second-split", func(kb *kernel.Builder, blk, idx kernel.Reg) {
			q := kb.Reg("q")
			kb.Div(q, blk, kernel.Imm(8))
			kb.Mod(idx, blk, kernel.Imm(16)) // pc 3: a second divisor
			kb.Add(idx, idx, kernel.R(q))
		}), "global address is not affine in the block index: modi at pc 3"},
		{"second-split-divi", build("uni-second-divi", func(kb *kernel.Builder, blk, idx kernel.Reg) {
			r := kb.Reg("r")
			kb.Mod(r, blk, kernel.Imm(8))
			kb.Div(idx, blk, kernel.Imm(16)) // pc 3: a second divisor
			kb.Add(idx, idx, kernel.R(r))
		}), "global address is not affine in the block index: divi at pc 3"},
	}
	for _, tc := range cases {
		_, err := BlockUniform(tc.prog, w, 1<<16, blocks)
		if !errors.Is(err, ErrNotUniform) {
			t.Fatalf("%s: BlockUniform = %v, want ErrNotUniform", tc.name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: refusal = %q, want it to name %q", tc.name, msg, tc.want)
		}
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

// matmulProgram builds the matmul workload kernel for n×n matrices at warp
// width w, with A, B and C at 0, n² and 2n².
func matmulProgram(t *testing.T, n, w int) *kernel.Program {
	t.Helper()
	nn := n * n
	prog, err := algorithms.MatMul{N: n}.Kernel(w, 0, nn, 2*nn)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestBlockUniformCertifiesMatMul: the paper's tiled matmul splits the
// block index into a tile row and column with divi/modi; the grid domain
// certifies it at n = 8w and 16w on every 32-wide preset and on Tiny.
func TestBlockUniformCertifiesMatMul(t *testing.T) {
	for _, cfg := range simgpu.Presets() {
		w := cfg.WarpWidth
		sizes := []int{8 * w, 16 * w}
		if cfg.GlobalWords < 3*sizes[1]*sizes[1] {
			sizes = sizes[:1]
		}
		for _, n := range sizes {
			prog := matmulProgram(t, n, w)
			blocks := algorithms.MatMul{N: n}.Blocks(w)
			cert, err := BlockUniform(prog, w, 3*n*n, blocks)
			if err != nil {
				t.Fatalf("%s n=%d: BlockUniform refused matmul: %v", cfg.Name, n, err)
			}
			if cert.Blocks != blocks || cert.Instrs == 0 {
				t.Errorf("%s n=%d: bad certificate %+v", cfg.Name, n, cert)
			}
		}
	}
}

// TestBlockUniformCertifiesReduce: reduce's blocks load a stride-32 chunk
// each and store one word at stride 1. The loads miss every store, so they
// are read-only and need no common stride with the stores.
func TestBlockUniformCertifiesReduce(t *testing.T) {
	const w, n = 32, 4096
	r := algorithms.Reduce{N: n}
	prog, err := r.Kernel(w, 0, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BlockUniform(prog, w, r.GlobalWords(w), r.Blocks(w)); err != nil {
		t.Fatalf("BlockUniform refused reduce: %v", err)
	}
}

// tileKernel is matmul's write-back alone: block (Q, R) = (blk / tiles,
// blk % tiles) stores its b×b tile of an n×n matrix, n = tiles·b, at
// base + Q·rowStride + R·b + r·n + lane for rows r. The twins below each
// break one thing the grid certificate rests on.
type tileKernel struct {
	b, tiles, rowStride, base int
	readNeighbour             bool // load the tile to the right first
	branchTop                 bool // store only when Q < 2
	mixed                     bool // a second store with stride pair (t·b, b)
}

func (k tileKernel) build(t *testing.T) *kernel.Program {
	t.Helper()
	b, n := k.b, k.tiles*k.b
	kb := kernel.NewBuilder("uni-tile", 0)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	qr := kb.Reg("tileRow")
	rr := kb.Reg("tileCol")
	tile := kb.Reg("tile")
	addr := kb.Reg("addr")
	val := kb.Reg("val")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Div(qr, blk, kernel.Imm(int64(k.tiles)))
	kb.Mod(rr, blk, kernel.Imm(int64(k.tiles)))
	kb.Mul(tile, qr, kernel.Imm(int64(k.rowStride)))
	kb.Mul(addr, rr, kernel.Imm(int64(b)))
	kb.Add(tile, tile, kernel.R(addr))
	kb.Add(tile, tile, kernel.R(j))
	kb.Add(tile, tile, kernel.Imm(int64(k.base)))
	store := func() {
		kb.ForDo(kernel.Imm(0), kernel.Imm(int64(b)), 1, func(r kernel.Reg) {
			kb.Mul(addr, r, kernel.Imm(int64(n)))
			kb.Add(addr, addr, kernel.R(tile))
			kb.Mov(val, j)
			if k.readNeighbour {
				kb.Add(val, addr, kernel.Imm(int64(b)))
				kb.LdGlobal(val, val)
			}
			kb.StGlobal(addr, val)
		})
	}
	if k.branchTop {
		top := kb.Reg("top")
		kb.Slt(top, qr, kernel.Imm(2))
		kb.IfDo(top, store)
	} else {
		store()
	}
	if k.mixed {
		kb.Mul(addr, blk, kernel.Imm(int64(b)))
		kb.Add(addr, addr, kernel.R(j))
		kb.Add(addr, addr, kernel.Imm(int64(k.base+n*n)))
		kb.StGlobal(addr, j)
	}
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// TestBlockUniformGridSoundness pins the grid domain's refusals next to the
// certifiable tile write-back they each break: overlapping C tiles, a read
// of a neighbour tile, a grid whose box corner leaves memory, a branch on
// the tile row, and mixed store strides.
func TestBlockUniformGridSoundness(t *testing.T) {
	const b, tiles = 8, 4
	n := b * tiles
	ok := tileKernel{b: b, tiles: tiles, rowStride: b * n}
	// Block 13 = (3, 1) is the last of a 14-block launch; the box corner
	// (3, 3) writes past this much memory.
	ragged := 3*b*n + (b-1)*n + 2*b
	cases := []struct {
		name          string
		k             tileKernel
		global, block int
		want          string // "" means certified
	}{
		{"tiles", ok, n * n, tiles * tiles, ""},
		{"ragged-in-bounds", ok, n * n, 14, ""},
		{"c-tile-overlap", tileKernel{b: b, tiles: tiles, rowStride: b * n / 2}, n * n, tiles * tiles, "collide across blocks"},
		{"neighbour-read", tileKernel{b: b, tiles: tiles, rowStride: b * n, readNeighbour: true}, n*n + b, tiles * tiles, "reads another block's store"},
		{"ragged-corner-out-of-bounds", ok, ragged, 14, "leaves [0,"},
		{"branch-on-tile-row", tileKernel{b: b, tiles: tiles, rowStride: b * n, branchTop: true}, n * n, tiles * tiles, "condition is not affine in the block index: slti at pc"},
		{"mixed-store-strides", tileKernel{b: b, tiles: tiles, rowStride: b * n, mixed: true}, 2 * n * n, tiles * tiles, "global store strides"},
	}
	for _, tc := range cases {
		_, err := BlockUniform(tc.k.build(t), b, tc.global, tc.block)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: BlockUniform refused: %v", tc.name, err)
		case tc.want != "" && !errors.Is(err, ErrNotUniform):
			t.Errorf("%s: BlockUniform = %v, want ErrNotUniform", tc.name, err)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: refusal = %q, want it to mention %q", tc.name, err, tc.want)
		}
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

// memoRun launches prog on a fresh cfg device whose first inputs words
// hold a fixed pattern, with the real prover installed or not, and returns
// the result, the final global memory and the device's memo skip count.
func memoRun(t *testing.T, cfg simgpu.Config, prog *kernel.Program, blocks, inputs int, withProver bool) (simgpu.KernelResult, []kernel.Word, int64) {
	t.Helper()
	dev, err := simgpu.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if withProver {
		dev.SetUniformProver(UniformProver)
	}
	raw := dev.Global().Raw()
	for i := 0; i < inputs; i++ {
		raw[i] = int64(i%97*5 - 100)
	}
	res, err := dev.Launch(prog, blocks)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return res, append([]kernel.Word(nil), raw...), dev.MemoSkips()
}

// sameLaunch fails unless two launches left identical KernelStats (cycles
// included), time and global memory.
func sameLaunch(t *testing.T, name string, a, b simgpu.KernelResult, aMem, bMem []kernel.Word) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Errorf("%s: stats diverge:\nprover: %+v\nplain:  %+v", name, a.Stats, b.Stats)
	}
	if a.Time != b.Time {
		t.Errorf("%s: time diverges: prover %v, plain %v", name, a.Time, b.Time)
	}
	for i := range bMem {
		if aMem[i] != bMem[i] {
			t.Fatalf("%s: global[%d] diverges: prover %d, plain %d", name, i, aMem[i], bMem[i])
		}
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

	// Control: the atomics-free baseline is certified and memoized.
	base := buildVecAddLike(t, b, n)
	if _, _, skips := memoRun(t, cfg, base, blocks, n, true); skips != 1 {
		t.Fatalf("baseline kernel engaged memoization %d times, want 1", skips)
	}

	// Pin: the atomic twin must fall back to full simulation...
	atomic := buildAtomicVecAddLike(t, b, n)
	memoRes, memoMem, skips := memoRun(t, cfg, atomic, blocks, n, true)
	if skips != 0 {
		t.Fatalf("atomic kernel engaged memoization %d times, want full-simulation fallback", skips)
	}
	// ...and be byte-identical to a device that never memoizes.
	fullRes, fullMem, _ := memoRun(t, cfg, atomic, blocks, n, false)
	sameLaunch(t, "atomic", memoRes, fullRes, memoMem, fullMem)
}

// TestMemoMatMulMatchesFullSimulation: with the prover certifying matmul,
// a memoizing device must leave global memory, KernelStats (cycles
// included) and time byte-identical to a prover-less one on every preset,
// at the first size with memoMinBlocks blocks. GTX650 at n=256 must
// actually memoize (its scheduler recurs with period 4 blocks).
func TestMemoMatMulMatchesFullSimulation(t *testing.T) {
	for _, cfg := range simgpu.Presets() {
		w := cfg.WarpWidth
		n := 8 * w
		nn := n * n
		cfg.GlobalWords = 3 * nn
		prog := matmulProgram(t, n, w)
		blocks := algorithms.MatMul{N: n}.Blocks(w)
		memo, memoMem, skips := memoRun(t, cfg, prog, blocks, 2*nn, true)
		full, fullMem, _ := memoRun(t, cfg, prog, blocks, 2*nn, false)
		sameLaunch(t, cfg.Name, memo, full, memoMem, fullMem)
		if cfg.Name == simgpu.GTX650().Name && skips == 0 {
			t.Errorf("%s n=%d: matmul never memoized", cfg.Name, n)
		}
	}
}
