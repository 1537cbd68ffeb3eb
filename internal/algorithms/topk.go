package algorithms

import (
	"cmp"
	"fmt"
	"slices"

	"atgpu/internal/core"
	"atgpu/internal/kernel"
	"atgpu/internal/models"
	"atgpu/internal/simgpu"
)

// TopKSentinel initialises the K result slots; it must be smaller than any
// input value. It is far from the int64 boundaries so the atomics never sit
// on overflow edges.
const TopKSentinel Word = -(1 << 62)

// TopK finds the K largest input values with an atomic-max cascade over K
// global slots: every thread carries its value down the slot array, at each
// slot exchanging its carry for the slot's old value when the carry is
// larger (old = atommax(slot, v); v = min(v, old)). Each step conserves the
// multiset {slot, carry} while slots only grow, which makes the final slot
// contents exactly the top-K multiset under ANY interleaving — but also
// makes every thread hammer the same K addresses, the worst-case global
// atomic contention pattern the analyzer must price.
type TopK struct {
	// N is the input length.
	N int
	// K is the number of maxima to keep (1 ≤ K, and small: cost is Θ(K)
	// serialised global atomics per thread).
	K int
}

// Name identifies the workload.
func (t TopK) Name() string { return "topk" }

// Blocks returns k: one warp per b input elements.
func (t TopK) Blocks(b int) int { return ceilDiv(t.N, b) }

// SharedWordsPerBlock returns m = 0: the cascade lives entirely in registers
// and global slots.
func (t TopK) SharedWordsPerBlock(int) int { return 0 }

// GlobalWords returns the device footprint: input plus the K slots.
func (t TopK) GlobalWords() int { return t.N + t.K }

// topKOpsPerThread approximates the straight-line per-thread operations
// outside the cascade loop; each cascade iteration adds a handful more.
const topKOpsPerThread = 8

// Analyze returns the ATGPU account: one round, t = Θ(K), q = k + K·k (the
// cascade's global atomics are transactions too), I = n, O = K. The n-way
// serialisation on the slots is the contention term.
func (t TopK) Analyze(p core.Params) (*core.Analysis, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadSize, t.N)
	}
	if t.K <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadSize, t.K)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := t.Blocks(p.B)
	a := &core.Analysis{
		Name:   t.Name(),
		Params: p,
		Rounds: []core.Round{{
			Time:            float64(topKOpsPerThread + 5*t.K),
			IO:              float64(k * (1 + t.K)),
			GlobalWords:     t.GlobalWords(),
			SharedWords:     0,
			Blocks:          k,
			InWords:         t.N + t.K,
			InTransactions:  2,
			OutWords:        t.K,
			OutTransactions: 1,
		}},
	}
	if err := a.CheckFeasible(); err != nil {
		return nil, err
	}
	return a, nil
}

// AGPU returns the asymptotic report the AGPU baseline would give.
func (t TopK) AGPU() models.AGPUReport {
	return models.AGPUReport{
		Algorithm:        t.Name(),
		TimeComplexity:   "O(K)",
		IOComplexity:     "O(K·k)",
		GlobalComplexity: "O(n + K)",
		SharedComplexity: "O(1)",
	}
}

// Kernel builds the cascade kernel: input at baseIn, the K slots at
// baseSlots (caller initialises them to TopKSentinel). Out-of-range lanes
// carry the sentinel, which never displaces a slot, so the kernel needs no
// divergence at all.
func (t TopK) Kernel(b int, baseIn, baseSlots int) (*kernel.Program, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadSize, t.N)
	}
	if t.K <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadSize, t.K)
	}
	kb := kernel.NewBuilder(fmt.Sprintf("topk-n%d-k%d", t.N, t.K), 0)

	j := kb.Reg("lane")
	blk := kb.Reg("block")
	idx := kb.Reg("idx")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(j))

	v := kb.Reg("v")
	inRange := kb.Reg("inRange")
	addr := kb.Reg("addr")
	kb.Const(v, TopKSentinel)
	kb.Slt(inRange, idx, kernel.Imm(int64(t.N)))
	kb.IfDo(inRange, func() {
		kb.Add(addr, idx, kernel.Imm(int64(baseIn)))
		kb.LdGlobal(v, addr)
	})

	// The cascade: old = atommax(slot[s], v); v = min(v, old).
	old := kb.Reg("old")
	kb.ForDo(kernel.Imm(0), kernel.Imm(int64(t.K)), 1, func(s kernel.Reg) {
		kb.Add(addr, s, kernel.Imm(int64(baseSlots)))
		kb.AtomMax(kernel.AtomGlobal, old, addr, v)
		kb.Min(v, v, kernel.R(old))
	})
	kb.Release(v, inRange, old)
	return kb.Build()
}

// Run executes the round plan and returns the K slots (descending is not
// guaranteed — compare as a multiset against TopKReference). Inputs must be
// larger than TopKSentinel.
func (t TopK) Run(h *simgpu.Host, in []Word) ([]Word, error) {
	if err := checkLen("in", len(in), t.N); err != nil {
		return nil, err
	}
	for i, v := range in {
		if v <= TopKSentinel {
			return nil, fmt.Errorf("%w: in[%d] = %d not above sentinel", ErrBadShape, i, v)
		}
	}
	width := h.Device().Config().WarpWidth

	baseIn, err := h.Malloc(t.N)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDoesNotFit, err)
	}
	baseSlots, err := h.Malloc(t.K)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDoesNotFit, err)
	}

	prog, err := t.Kernel(width, baseIn, baseSlots)
	if err != nil {
		return nil, err
	}

	if err := h.TransferIn(baseIn, in); err != nil {
		return nil, err
	}
	slots := make([]Word, t.K)
	for i := range slots {
		slots[i] = TopKSentinel
	}
	if err := h.TransferIn(baseSlots, slots); err != nil {
		return nil, err
	}
	if _, err := h.Launch(prog, t.Blocks(width)); err != nil {
		return nil, err
	}
	out, err := h.TransferOut(baseSlots, t.K)
	if err != nil {
		return nil, err
	}
	h.EndRound()
	return out, nil
}

// TopKReference returns the K largest values of in (with multiplicity) in
// descending order; when K > len(in) the tail is TopKSentinel, matching the
// device's untouched slots.
func TopKReference(in []Word, k int) ([]Word, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadSize, k)
	}
	sorted := slices.Clone(in)
	slices.SortFunc(sorted, func(a, b Word) int { return cmp.Compare(b, a) })
	out := make([]Word, k)
	for i := range out {
		if i < len(sorted) {
			out[i] = sorted[i]
		} else {
			out[i] = TopKSentinel
		}
	}
	return out, nil
}
