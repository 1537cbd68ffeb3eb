package algorithms

import (
	"fmt"

	"atgpu/internal/core"
	"atgpu/internal/kernel"
	"atgpu/internal/models"
	"atgpu/internal/simgpu"
)

// Reduce is the paper's second workload (§IV-B): sum an n-vector with the
// tree-based reduction of Harris's "Optimizing parallel reduction in CUDA",
// adapted to the model's one-warp thread blocks. Each round every block
// loads b elements into shared memory, tree-reduces them in log₂b steps,
// and writes one partial sum; rounds repeat on the shrinking output
// ("each round using the output from the previous round as input") until a
// single value remains — R = ⌈log_b n⌉ rounds.
type Reduce struct {
	// N is the input length.
	N int
}

// Name identifies the workload.
func (r Reduce) Name() string { return "reduce" }

// RoundSizes returns the element count entering each round: n, ⌈n/b⌉, …
// down to the round that outputs a single value.
func (r Reduce) RoundSizes(b int) []int {
	var sizes []int
	for n := r.N; n > 1; n = ceilDiv(n, b) {
		sizes = append(sizes, n)
	}
	if r.N == 1 {
		sizes = []int{1}
	}
	return sizes
}

// Rounds returns R = ⌈log_b n⌉ (at least 1).
func (r Reduce) Rounds(b int) int { return len(r.RoundSizes(b)) }

// Blocks returns the first — widest — round's launch width.
func (r Reduce) Blocks(b int) int { return ceilDiv(r.N, b) }

// GlobalWords returns the footprint: the input buffer plus a ping-pong
// partials buffer of ⌈n/b⌉ words.
func (r Reduce) GlobalWords(b int) int { return r.N + ceilDiv(r.N, b) }

// reduceOps returns the per-thread straight-line operation count of one
// round's kernel: constant setup plus log₂b tree steps (each step runs both
// paths of its divergent if, per the model's "all paths are executed").
func reduceOps(b int) float64 { return float64(14 + 9*log2(b)) }

// Analyze returns the exact ATGPU account of §IV-B. Round i over nᵢ
// elements launches kᵢ = ⌈nᵢ/b⌉ blocks, performs 2kᵢ block transactions
// (one coalesced load, one single-word store per block), uses b shared
// words per block; the first round transfers the n inputs in (Î₁ = 1),
// the last transfers the answer out (Ô_R = 1). Summed over rounds the I/O
// is the geometric series (n/b)·(1-(1/b)^R)/(1-1/b) of the paper.
func (r Reduce) Analyze(p core.Params) (*core.Analysis, error) {
	if r.N <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadSize, r.N)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !isPow2(p.B) {
		return nil, fmt.Errorf("%w: b=%d", ErrNotPow2, p.B)
	}
	sizes := r.RoundSizes(p.B)
	a := &core.Analysis{Name: r.Name(), Params: p}
	for i, n := range sizes {
		k := ceilDiv(n, p.B)
		round := core.Round{
			Time:        reduceOps(p.B),
			IO:          float64(2 * k),
			GlobalWords: r.GlobalWords(p.B),
			SharedWords: p.B,
			Blocks:      k,
		}
		if i == 0 {
			round.InWords = r.N
			round.InTransactions = 1
		}
		if i == len(sizes)-1 {
			round.OutWords = 1
			round.OutTransactions = 1
		}
		a.Rounds = append(a.Rounds, round)
	}
	if err := a.CheckFeasible(); err != nil {
		return nil, err
	}
	return a, nil
}

// Split declares the chunked-transfer variant at warp width b: each chunk
// reduces on the device to one partial through its own ⌈log_b chunk⌉
// rounds, ping-ponging between the chunk buffer and a partials scratch
// buffer, and the host sums the partials.
func (r Reduce) Split(b int) (Split, error) {
	if !isPow2(b) {
		return Split{}, fmt.Errorf("%w: b=%d", ErrNotPow2, b)
	}
	return Split{
		Name: "reduce", Width: b, Len: r.N, Unit: 1, Inputs: 1,
		Scratch: func(units int) int { return ceilDiv(units, b) },
		Chunk: func(units int, bufs Bufs) ([]ChunkRound, int) {
			in, out := bufs.In[0], bufs.Scratch
			sizes := Reduce{N: units}.RoundSizes(b)
			rounds := make([]ChunkRound, len(sizes))
			for i, count := range sizes {
				k := ceilDiv(count, b)
				src, dst := in, out
				rounds[i] = ChunkRound{
					Round: core.Round{Time: reduceOps(b), IO: float64(2 * k), SharedWords: b, Blocks: k},
					Kernel: func() (*kernel.Program, error) {
						return Reduce{N: units}.Kernel(b, src, dst, count)
					},
				}
				in, out = out, in
			}
			return rounds, in
		},
		Combine: func(parts []Word) Word {
			var sum Word
			for _, p := range parts {
				sum += p
			}
			return sum
		},
	}, nil
}

// AGPU returns the asymptotic report the AGPU baseline would give.
func (r Reduce) AGPU() models.AGPUReport {
	return models.AGPUReport{
		Algorithm:        r.Name(),
		TimeComplexity:   "O(log b) per round, O(log b · log n) total",
		IOComplexity:     "O((n/b)·(1-(1/b)^log n)/(1-1/b))",
		GlobalComplexity: "O(n)",
		SharedComplexity: "O(b)",
	}
}

// Kernel builds one round's reduction kernel over count elements at inBase,
// writing ⌈count/b⌉ partial sums at outBase. b must be a power of two; the
// tree is unrolled at build time, each stride guarded by the divergent
// single-block if of the model.
func (r Reduce) Kernel(b int, inBase, outBase, count int) (*kernel.Program, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: count=%d", ErrBadSize, count)
	}
	if !isPow2(b) {
		return nil, fmt.Errorf("%w: b=%d", ErrNotPow2, b)
	}
	kb := kernel.NewBuilder(fmt.Sprintf("reduce-n%d", count), b)

	j := kb.Reg("lane")
	blk := kb.Reg("block")
	idx := kb.Reg("idx")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(j))

	// _s[j] ← 0, then overwrite with the input when in range, so tail
	// lanes contribute the identity without reading out of bounds.
	zero := kb.Reg("zero")
	kb.Const(zero, 0)
	kb.StShared(j, zero)
	inRange := kb.Reg("inRange")
	kb.Slt(inRange, idx, kernel.Imm(int64(count)))
	val := kb.Reg("val")
	addr := kb.Reg("addr")
	kb.IfDo(inRange, func() {
		kb.Add(addr, idx, kernel.Imm(int64(inBase)))
		kb.LdGlobal(val, addr)
		kb.StShared(j, val)
	})
	kb.Barrier()

	// Tree reduction, strides b/2 … 1, unrolled at build time.
	lt := kb.Reg("lt")
	other := kb.Reg("other")
	sum := kb.Reg("sum")
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

	// Lane 0 writes the block's partial sum.
	isZero := kb.Reg("isZero")
	kb.Seq(isZero, j, kernel.Imm(0))
	kb.IfDo(isZero, func() {
		kb.LdShared(val, j)
		kb.Add(addr, blk, kernel.Imm(int64(outBase)))
		kb.StGlobal(addr, val)
	})
	return kb.Build()
}

// Run executes the full multi-round plan: transfer the input once, launch
// one kernel per round ping-ponging between the input buffer and a
// partials buffer, then transfer the single answer out. Matches the
// paper's "Reduction" pseudocode (one inward transfer, R kernel
// executions, one outward transfer).
func (r Reduce) Run(h *simgpu.Host, input []Word) (Word, error) {
	if err := checkLen("input", len(input), r.N); err != nil {
		return 0, err
	}
	if r.N == 0 {
		return 0, fmt.Errorf("%w: empty input", ErrBadSize)
	}
	width := h.Device().Config().WarpWidth
	if !isPow2(width) {
		return 0, fmt.Errorf("%w: device warp width %d", ErrNotPow2, width)
	}

	bufA, err := h.Malloc(r.N)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrDoesNotFit, err)
	}
	bufB, err := h.Malloc(ceilDiv(r.N, width))
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrDoesNotFit, err)
	}

	if err := h.TransferIn(bufA, input); err != nil {
		return 0, err
	}

	in, out := bufA, bufB
	count := r.N
	for count > 1 {
		prog, err := r.Kernel(width, in, out, count)
		if err != nil {
			return 0, err
		}
		if _, err := h.Launch(prog, ceilDiv(count, width)); err != nil {
			return 0, err
		}
		// Each kernel execution is one model round, host-synchronised:
		// the analysis charges σ·R = σ·⌈log_b n⌉.
		h.EndRound()
		count = ceilDiv(count, width)
		in, out = out, in
	}

	ans, err := h.TransferOut(in, 1)
	if err != nil {
		return 0, err
	}
	return ans[0], nil
}

// ReduceReference sums the input on the CPU.
func ReduceReference(input []Word) Word {
	var s Word
	for _, v := range input {
		s += v
	}
	return s
}
