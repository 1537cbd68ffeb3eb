package algorithms

import (
	"fmt"

	"atgpu/internal/core"
	"atgpu/internal/kernel"
	"atgpu/internal/models"
	"atgpu/internal/simgpu"
)

// MatMul is the paper's third workload (§IV-C): C = A×B for n×n matrices,
// using "a well known GPU method for matrix multiplication in shared
// memory (introduced in CUDA Programming Guide), modified for the single
// warp per multiprocessor of our model".
//
// Each thread block owns one b×b tile of C. Lane j owns column j of the
// tile. The block sweeps the n/b tile phases: it stages the phase's A and
// B tiles into shared memory row by row (coalesced), accumulates the
// partial products into a C tile kept in shared memory, and finally writes
// its C tile back to global memory. One round: the data transfer is a
// single staging of A and B inward and C outward, which is why this is the
// paper's example where transfer does not dominate and "our model is not
// useful" beyond what SWGPU already captures.
type MatMul struct {
	// N is the matrix side length; must be a multiple of the warp width
	// for the tiling to be exact.
	N int
}

// Name identifies the workload.
func (m MatMul) Name() string { return "matmul" }

// Tiles returns n/b, the tiles per side.
func (m MatMul) Tiles(b int) int { return ceilDiv(m.N, b) }

// Blocks returns k = (n/b)².
func (m MatMul) Blocks(b int) int { t := m.Tiles(b); return t * t }

// SharedWordsPerBlock returns m = 3b² (A tile, B tile, C tile).
func (m MatMul) SharedWordsPerBlock(b int) int { return 3 * b * b }

// GlobalWords returns the footprint 3n².
func (m MatMul) GlobalWords() int { return 3 * m.N * m.N }

// matMulOps returns the per-thread straight-line operation count for one
// block: per phase, 2 staging loops of b rows (~7 ops each) plus a compute
// loop of b rows, each row doing b unrolled multiply-accumulates (~4 ops)
// plus shared C read/update (~8); then b write-back rows. Θ(n·b) total,
// the paper's parallel time complexity.
func matMulOps(n, b int) float64 {
	phases := ceilDiv(n, b)
	perPhase := 2*(7*b+4) + b*(4*b+12) + 4
	writeBack := 9*b + 4
	return float64(10 + phases*perPhase + writeBack)
}

// Analyze returns the exact ATGPU account of §IV-C: R = 1, t = Θ(nb),
// q = (n/b)²·(2n+b) (per block: 2b block-loads per phase × n/b phases plus
// b write-back transactions — the paper's O((n/b)²(n+b))), global = 3n²,
// shared = 3b², I = 2n² in 2 transactions, O = n² in 1.
func (m MatMul) Analyze(p core.Params) (*core.Analysis, error) {
	if m.N <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadSize, m.N)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if m.N%p.B != 0 {
		return nil, fmt.Errorf("%w: n=%d not a multiple of b=%d", ErrBadShape, m.N, p.B)
	}
	k := m.Blocks(p.B)
	perBlockIO := 2*m.N + p.B
	a := &core.Analysis{
		Name:   m.Name(),
		Params: p,
		Rounds: []core.Round{{
			Time:            matMulOps(m.N, p.B),
			IO:              float64(k * perBlockIO),
			GlobalWords:     m.GlobalWords(),
			SharedWords:     m.SharedWordsPerBlock(p.B),
			Blocks:          k,
			InWords:         2 * m.N * m.N,
			InTransactions:  2,
			OutWords:        m.N * m.N,
			OutTransactions: 1,
		}},
	}
	if err := a.CheckFeasible(); err != nil {
		return nil, err
	}
	return a, nil
}

// AGPU returns the asymptotic report the AGPU baseline would give.
func (m MatMul) AGPU() models.AGPUReport {
	return models.AGPUReport{
		Algorithm:        m.Name(),
		TimeComplexity:   "O(n·b)",
		IOComplexity:     "O((n/b)²·(n+b))",
		GlobalComplexity: "O(n²)",
		SharedComplexity: "O(b²)",
	}
}

// Kernel builds the tiled kernel for matrices at baseA, baseB, baseC.
// Shared layout: [0, b²) A tile, [b², 2b²) B tile, [2b², 3b²) C tile, all
// row-major. The inner multiply-accumulate over the tile dimension is
// unrolled at build time; row loops remain uniform runtime loops.
func (m MatMul) Kernel(b int, baseA, baseB, baseC int) (*kernel.Program, error) {
	if m.N <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadSize, m.N)
	}
	if m.N%b != 0 {
		return nil, fmt.Errorf("%w: n=%d not a multiple of b=%d", ErrBadShape, m.N, b)
	}
	n := m.N
	tiles := n / b
	bb := b * b
	kb := kernel.NewBuilder(fmt.Sprintf("matmul-n%d", n), 3*bb)

	j := kb.Reg("lane")
	blk := kb.Reg("block")
	bi := kb.Reg("tileRow")
	bj := kb.Reg("tileCol")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Div(bi, blk, kernel.Imm(int64(tiles)))
	kb.Mod(bj, blk, kernel.Imm(int64(tiles)))

	// rowBase = bi·b·n : global row offset of this tile's first row.
	rowBase := kb.Reg("rowBase")
	kb.Mul(rowBase, bi, kernel.Imm(int64(b*n)))
	// colBase = bj·b : global column offset.
	colBase := kb.Reg("colBase")
	kb.Mul(colBase, bj, kernel.Imm(int64(b)))

	addr := kb.Reg("addr")
	val := kb.Reg("val")
	sAddr := kb.Reg("sAddr")
	tmp := kb.Reg("tmp")

	// Zero the C tile: lane j clears column j of each row.
	zero := kb.Reg("zero")
	kb.Const(zero, 0)
	kb.ForDo(kernel.Imm(0), kernel.Imm(int64(b)), 1, func(r kernel.Reg) {
		kb.Mul(sAddr, r, kernel.Imm(int64(b)))
		kb.Add(sAddr, sAddr, kernel.R(j))
		kb.Add(sAddr, sAddr, kernel.Imm(int64(2*bb)))
		kb.StShared(sAddr, zero)
	})
	kb.Barrier()

	// Phase loop over the n/b tile strips.
	kb.ForDo(kernel.Imm(0), kernel.Imm(int64(tiles)), 1, func(p kernel.Reg) {
		// pOff = p·b : the strip offset along the shared dimension.
		pOff := kb.Reg("pOff")
		kb.Mul(pOff, p, kernel.Imm(int64(b)))

		// Stage A tile: row r of the tile is A[(bi·b+r)·n + p·b + j].
		kb.ForDo(kernel.Imm(0), kernel.Imm(int64(b)), 1, func(r kernel.Reg) {
			kb.Mul(addr, r, kernel.Imm(int64(n)))
			kb.Add(addr, addr, kernel.R(rowBase))
			kb.Add(addr, addr, kernel.R(pOff))
			kb.Add(addr, addr, kernel.R(j))
			kb.Add(addr, addr, kernel.Imm(int64(baseA)))
			kb.LdGlobal(val, addr)
			kb.Mul(sAddr, r, kernel.Imm(int64(b)))
			kb.Add(sAddr, sAddr, kernel.R(j))
			kb.StShared(sAddr, val)
		})
		// Stage B tile: row r is B[(p·b+r)·n + bj·b + j].
		kb.ForDo(kernel.Imm(0), kernel.Imm(int64(b)), 1, func(r kernel.Reg) {
			kb.Add(addr, pOff, kernel.R(r))
			kb.Mul(addr, addr, kernel.Imm(int64(n)))
			kb.Add(addr, addr, kernel.R(colBase))
			kb.Add(addr, addr, kernel.R(j))
			kb.Add(addr, addr, kernel.Imm(int64(baseB)))
			kb.LdGlobal(val, addr)
			kb.Mul(sAddr, r, kernel.Imm(int64(b)))
			kb.Add(sAddr, sAddr, kernel.R(j))
			kb.Add(sAddr, sAddr, kernel.Imm(int64(bb)))
			kb.StShared(sAddr, val)
		})
		kb.Barrier()

		// Accumulate: for each tile row r, lane j updates
		// C[r][j] += Σ_m A[r][m]·B[m][j]; the m loop is unrolled.
		acc := kb.Reg("acc")
		av := kb.Reg("av")
		bv := kb.Reg("bv")
		rowOff := kb.Reg("rowOff")
		kb.ForDo(kernel.Imm(0), kernel.Imm(int64(b)), 1, func(r kernel.Reg) {
			kb.Mul(rowOff, r, kernel.Imm(int64(b)))
			// acc ← C tile[r][j]
			kb.Add(sAddr, rowOff, kernel.R(j))
			kb.Add(sAddr, sAddr, kernel.Imm(int64(2*bb)))
			kb.LdShared(acc, sAddr)
			for mm := 0; mm < b; mm++ {
				// av ← A tile[r][mm] (uniform address: broadcast)
				kb.Add(tmp, rowOff, kernel.Imm(int64(mm)))
				kb.LdShared(av, tmp)
				// bv ← B tile[mm][j] (conflict-free)
				kb.Add(tmp, j, kernel.Imm(int64(bb+mm*b)))
				kb.LdShared(bv, tmp)
				kb.Mul(av, av, kernel.R(bv))
				kb.Add(acc, acc, kernel.R(av))
			}
			kb.Add(sAddr, rowOff, kernel.R(j))
			kb.Add(sAddr, sAddr, kernel.Imm(int64(2*bb)))
			kb.StShared(sAddr, acc)
		})
		kb.Barrier()
		kb.Release(acc, av, bv, rowOff, pOff)
	})

	// Write back the C tile: row r goes to C[(bi·b+r)·n + bj·b + j].
	kb.ForDo(kernel.Imm(0), kernel.Imm(int64(b)), 1, func(r kernel.Reg) {
		kb.Mul(sAddr, r, kernel.Imm(int64(b)))
		kb.Add(sAddr, sAddr, kernel.R(j))
		kb.Add(sAddr, sAddr, kernel.Imm(int64(2*bb)))
		kb.LdShared(val, sAddr)
		kb.Mul(addr, r, kernel.Imm(int64(n)))
		kb.Add(addr, addr, kernel.R(rowBase))
		kb.Add(addr, addr, kernel.R(colBase))
		kb.Add(addr, addr, kernel.R(j))
		kb.Add(addr, addr, kernel.Imm(int64(baseC)))
		kb.StGlobal(addr, val)
	})
	return kb.Build()
}

// Run executes the single-round plan: transfer A and B in, launch, transfer
// C out, synchronise. Matrices are row-major n×n slices.
func (m MatMul) Run(h *simgpu.Host, a, b []Word) ([]Word, error) {
	c := make([]Word, len(a))
	if err := m.RunInto(h, a, b, c); err != nil {
		return nil, err
	}
	return c, nil
}

// RunInto is Run with C transferred out into dst. dst may alias a or b:
// the readout comes after both inputs have landed.
func (m MatMul) RunInto(h *simgpu.Host, a, b, dst []Word) error {
	width := h.Device().Config().WarpWidth
	if m.N%width != 0 {
		return fmt.Errorf("%w: n=%d not a multiple of warp width %d", ErrBadShape, m.N, width)
	}
	return singleRound(h, m.N*m.N, a, b, dst, m.Blocks(width), func(baseA, baseB, baseC int) (*kernel.Program, error) {
		return m.Kernel(width, baseA, baseB, baseC)
	})
}

// MatMulReference computes A×B on the CPU (row-major n×n).
func MatMulReference(a, b []Word, n int) ([]Word, error) {
	if len(a) != n*n || len(b) != n*n {
		return nil, fmt.Errorf("%w: len(a)=%d len(b)=%d n=%d", ErrBadShape, len(a), len(b), n)
	}
	c := make([]Word, n*n)
	for i := 0; i < n; i++ {
		for kk := 0; kk < n; kk++ {
			av := a[i*n+kk]
			if av == 0 {
				continue
			}
			row := b[kk*n:]
			out := c[i*n:]
			for j := 0; j < n; j++ {
				out[j] += av * row[j]
			}
		}
	}
	return c, nil
}
