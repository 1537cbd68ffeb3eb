package algorithms

import (
	"fmt"

	"atgpu/internal/core"
	"atgpu/internal/kernel"
	"atgpu/internal/models"
	"atgpu/internal/simgpu"
)

// VecAdd is the paper's first workload (§IV-A): C = A + B elementwise, "an
// embarrassingly parallel problem" with one thread per element. The kernel
// follows the paper's pseudocode: stage both inputs from global into shared
// memory, add in shared memory, and write the result back through shared
// memory — one round, coalesced throughout.
type VecAdd struct {
	// N is the vector length.
	N int
}

// Name identifies the workload.
func (v VecAdd) Name() string { return "vecadd" }

// Blocks returns k, the thread blocks launched: one warp per b elements.
func (v VecAdd) Blocks(b int) int { return ceilDiv(v.N, b) }

// SharedWordsPerBlock returns the per-block shared allocation m = 3b
// (one b-word strip for each of a, b and c).
func (v VecAdd) SharedWordsPerBlock(b int) int { return 3 * b }

// GlobalWords returns the device footprint: the three vectors.
func (v VecAdd) GlobalWords() int { return 3 * v.N }

// vecAddOpsPerThread is the straight-line operation count of one thread,
// the model's tᵢ for the single round. The paper uses the constant 13 for
// its hand-written pseudocode; ours is derived from the IR kernel (address
// arithmetic included) and differs only by a constant factor, which the
// cost trend is insensitive to.
const vecAddOpsPerThread = 20

// Analyze returns the exact ATGPU account of §IV-A: R = 1, t = Θ(1),
// q = 3k, global = 3n, shared = 3b, I = 2n in 2 transactions, O = n in 1.
// The paper's cost α·3 + β·3n + (13 + λ·3k)/γ + σ follows from these counts.
func (v VecAdd) Analyze(p core.Params) (*core.Analysis, error) {
	if v.N <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadSize, v.N)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := v.Blocks(p.B)
	a := &core.Analysis{
		Name:   v.Name(),
		Params: p,
		Rounds: []core.Round{{
			Time:            vecAddOpsPerThread,
			IO:              float64(3 * k),
			GlobalWords:     v.GlobalWords(),
			SharedWords:     v.SharedWordsPerBlock(p.B),
			Blocks:          k,
			InWords:         2 * v.N,
			InTransactions:  2,
			OutWords:        v.N,
			OutTransactions: 1,
		}},
	}
	if err := a.CheckFeasible(); err != nil {
		return nil, err
	}
	return a, nil
}

// AGPU returns the asymptotic report the AGPU baseline would give.
func (v VecAdd) AGPU() models.AGPUReport {
	return models.AGPUReport{
		Algorithm:        v.Name(),
		TimeComplexity:   "O(1)",
		IOComplexity:     "O(k)",
		GlobalComplexity: "O(n)",
		SharedComplexity: "O(b)",
	}
}

// Kernel builds the vector-addition kernel for element count n over device
// arrays at baseA, baseB, baseC. Shared layout: [0,b) staged a, [b,2b)
// staged b, [2b,3b) staged c. Threads beyond n are masked by a single-block
// if, the paper's only divergence construct.
func (v VecAdd) Kernel(b int, baseA, baseB, baseC int) (*kernel.Program, error) {
	if v.N <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadSize, v.N)
	}
	kb := kernel.NewBuilder(fmt.Sprintf("vecadd-n%d", v.N), 3*b)

	j := kb.Reg("lane")
	blk := kb.Reg("block")
	idx := kb.Reg("idx")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(j))

	inRange := kb.Reg("inRange")
	kb.Slt(inRange, idx, kernel.Imm(int64(v.N)))

	addr := kb.Reg("addr")
	val := kb.Reg("val")
	sOff := kb.Reg("sOff")

	kb.IfDo(inRange, func() {
		// a[j] ⇐ a[i·b + j] : global stage of A into shared strip 0.
		kb.Add(addr, idx, kernel.Imm(int64(baseA)))
		kb.LdGlobal(val, addr)
		kb.StShared(j, val)
		// b[j] ⇐ b[i·b + j] : stage B into shared strip 1.
		kb.Add(addr, idx, kernel.Imm(int64(baseB)))
		kb.LdGlobal(val, addr)
		kb.Add(sOff, j, kernel.Imm(int64(b)))
		kb.StShared(sOff, val)

		// c[j] ← a[j] + b[j] : add within shared memory.
		va := kb.Reg("va")
		vb := kb.Reg("vb")
		kb.LdShared(va, j)
		kb.LdShared(vb, sOff)
		kb.Add(va, va, kernel.R(vb))
		kb.Add(sOff, j, kernel.Imm(int64(2*b)))
		kb.StShared(sOff, va)

		// c[i·b + j] ⇐ c[j] : write result tile back to global.
		kb.LdShared(val, sOff)
		kb.Add(addr, idx, kernel.Imm(int64(baseC)))
		kb.StGlobal(addr, val)
		kb.Release(va, vb)
	})
	return kb.Build()
}

// Run executes the full round plan on the host: transfer A and B in, launch
// the kernel, transfer C out, synchronise. It returns the result vector.
// Timing accumulates on the host's simulated clocks.
func (v VecAdd) Run(h *simgpu.Host, a, b []Word) ([]Word, error) {
	c := make([]Word, len(a))
	if err := v.RunInto(h, a, b, c); err != nil {
		return nil, err
	}
	return c, nil
}

// RunInto is Run with C transferred out into dst. dst may alias a or b:
// the readout comes after both inputs have landed.
func (v VecAdd) RunInto(h *simgpu.Host, a, b, dst []Word) error {
	width := h.Device().Config().WarpWidth
	return singleRound(h, v.N, a, b, dst, v.Blocks(width), func(baseA, baseB, baseC int) (*kernel.Program, error) {
		return v.Kernel(width, baseA, baseB, baseC)
	})
}

// Reference computes A+B on the CPU.
func VecAddReference(a, b []Word) ([]Word, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: len(a)=%d len(b)=%d", ErrBadShape, len(a), len(b))
	}
	c := make([]Word, len(a))
	for i := range a {
		c[i] = a[i] + b[i]
	}
	return c, nil
}
