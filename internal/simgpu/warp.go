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
	// form is each register's symbolic state; see regForm.
	form  [256]regForm
	width int
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

	// addrs is scratch for gathering a warp-wide address vector. It is
	// not the warp's own: acquire points it at the launch's, which the
	// warps share because a launch issues one instruction at a time, and
	// each concurrent memo replay chunk gets one of its own.
	addrs []int
}

func newWarp(width, numRegs, sharedWords int) (*warp, error) {
	sh, err := mem.NewShared(sharedWords, width)
	if err != nil {
		return nil, err
	}
	return &warp{
		width:  width,
		regs:   make([]kernel.Word, numRegs*width),
		active: make([]bool, width),
		shared: sh,
	}, nil
}

// reset prepares the warp to run block blockID from a clean state:
// every register the uniform 0, zeroed shared memory, full mask, pc 0.
// Only lanes 0 and 1 of each register are cleared; the rest are stale.
func (w *warp) reset(blockID int) {
	w.blockID = blockID
	w.pc = 0
	w.state = wReady
	w.readyAt = 0
	w.instrs = 0
	w.atomSer = 0
	initial := formAffine
	if w.width > 2 {
		initial = formStale
	}
	for base, r := 0, 0; base < len(w.regs); base, r = base+w.width, r+1 {
		w.regs[base] = 0
		if w.width > 1 {
			w.regs[base+1] = 0
		}
		w.form[r] = initial
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

// regForm is the form a register's column is in.
type regForm uint8

const (
	// formFlat: every lane of the column holds its value, and the register
	// has no symbolic form.
	formFlat regForm = iota
	// formAffine: the register is lane-affine. Lanes 0 and 1 of its column
	// hold their values v0 and v1, and lane l holds v0 + (v1−v0)·l (on a
	// one-lane warp, just v0). Every lane is written out.
	formAffine
	// formStale: as formAffine, but the lanes from 2 up are not written
	// out yet. execColumn writes them out before anything reads the column
	// lane by lane.
	formStale
)

// execAffine returns register r's symbolic form, column base base, or
// false when it has none.
func (w *warp) execAffine(r kernel.Reg, base int) (kernel.Affine, bool) {
	if w.form[r] == formFlat {
		return kernel.Affine{}, false
	}
	v0 := w.regs[base]
	if w.width == 1 {
		return kernel.Uniform(v0), true
	}
	return kernel.Affine{Base: v0, Step: w.regs[base+1] - v0}, true
}

// execSetAffine gives register r, column base base, the value f on every
// lane in O(1): it stores lanes 0 and 1 and leaves the rest stale.
func (w *warp) execSetAffine(r kernel.Reg, base int, f kernel.Affine) {
	w.regs[base] = f.Base
	w.form[r] = formAffine
	if w.width > 1 {
		w.regs[base+1] = f.Base + f.Step
		if w.width > 2 {
			w.form[r] = formStale
		}
	}
}

// execColumn returns register r's column, column base base, written out.
func (w *warp) execColumn(r kernel.Reg, base int) []kernel.Word {
	col := w.regs[base : base+w.width : base+w.width]
	if w.form[r] == formStale {
		v0 := col[0]
		kernel.Affine{Base: v0, Step: col[1] - v0}.Column(col)
		w.form[r] = formAffine
	}
	return col
}

// execWrote records that register r's column was just written lane by
// lane: its symbolic form, if any, no longer holds.
func (w *warp) execWrote(r kernel.Reg) { w.form[r] = formFlat }
