package simgpu

import (
	"atgpu/internal/kernel"
	"atgpu/internal/mem"
)

// wState is the scheduling state of a warp.
type wState uint8

const (
	wReady   wState = iota // can issue this cycle
	wWaiting               // blocked on a memory request until readyAt
	wDone                  // retired at halt
)

// warp is one resident thread block's execution state. In the ATGPU model a
// thread block is exactly one warp: the b cores Cᵢ of a multiprocessor
// executing "the same set of instructions at the same time (in lockstep)".
type warp struct {
	blockID int
	pc      int
	state   wState
	readyAt int64 // cycle at which a waiting warp becomes ready
	instrs  int64 // warp-instructions issued by this block
	atomSer int64 // Σ(degree−1) over this block's atomic accesses

	// smIdx is the hosting SM; traceIdx links to the Tracer's span for
	// this residency (-1 when untraced).
	smIdx    int
	traceIdx int

	// regs is the flattened per-lane register file: register r of lane l
	// is regs[int(r)*width + l].
	regs []kernel.Word
	// active is the SIMT mask; lanes masked off by an if.begin stay
	// inactive until the matching if.end. activeN caches the number of
	// true entries — it is maintained by reset/popMask and by the if.begin
	// handlers, the only places the mask changes.
	active  []bool
	activeN int
	// maskStack saves outer masks across nested if regions; maskDepth is
	// the live depth (entries above it are reusable storage).
	maskStack [][]bool
	maskDepth int

	// shared is the block's shared-memory allocation.
	shared *mem.Shared

	// addrs is scratch for gathering a warp-wide address vector.
	addrs []int
}

func newWarp(width, numRegs, sharedWords int) (*warp, error) {
	sh, err := mem.NewShared(sharedWords, width)
	if err != nil {
		return nil, err
	}
	return &warp{
		regs:   make([]kernel.Word, numRegs*width),
		active: make([]bool, width),
		shared: sh,
		addrs:  make([]int, width),
	}, nil
}

// reset prepares the warp to run block blockID from a clean state:
// zeroed registers and shared memory, full mask, pc 0.
func (w *warp) reset(blockID int) {
	w.blockID = blockID
	w.pc = 0
	w.state = wReady
	w.readyAt = 0
	w.instrs = 0
	w.atomSer = 0
	for i := range w.regs {
		w.regs[i] = 0
	}
	for i := range w.active {
		w.active[i] = true
	}
	w.activeN = len(w.active)
	w.maskDepth = 0
	w.shared.Zero()
}

// pushMask saves the current mask, reusing stack storage when available.
func (w *warp) pushMask() {
	if w.maskDepth == len(w.maskStack) {
		w.maskStack = append(w.maskStack, make([]bool, len(w.active)))
	}
	copy(w.maskStack[w.maskDepth], w.active)
	w.maskDepth++
}

// popMask restores the most recently saved mask. Returns false on
// underflow (a malformed program that Validate should have rejected).
func (w *warp) popMask() bool {
	if w.maskDepth == 0 {
		return false
	}
	w.maskDepth--
	copy(w.active, w.maskStack[w.maskDepth])
	n := 0
	for _, a := range w.active {
		if a {
			n++
		}
	}
	w.activeN = n
	return true
}

// anyActive reports whether any lane is active.
func (w *warp) anyActive() bool {
	for _, a := range w.active {
		if a {
			return true
		}
	}
	return false
}
