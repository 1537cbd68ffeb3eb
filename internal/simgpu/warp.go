package simgpu

import (
	"math/bits"

	"atgpu/internal/kernel"
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
//
// Memo replay runs a batch of consecutive blocks on one warp (memo.go):
// every register holds a column of width lanes per block, blocks side by
// side, and every block has its own shared memory, row-interleaved in one
// slab, while the pc and the SIMT mask are the batch's. A scheduled warp
// is a batch of one block.
type warp struct {
	blockID int // the block, or a batch's first block
	pc      int
	state   wState
	// fresh is the form execSetForm leaves: formStale when the column has
	// lanes past the anchors, else formAffine.
	fresh   regForm
	readyAt int64 // cycle at which a waiting warp becomes ready
	instrs  int64 // warp-instructions issued by this block
	atomSer int64 // Σ(degree−1) over this block's atomic accesses

	// smIdx is the hosting SM; traceIdx links to the Tracer's span for
	// this residency (-1 when untraced).
	smIdx    int
	traceIdx int

	// The fields every instruction reads sit together, ahead of form.
	width  int
	blocks int
	lanes  int
	// activeN caches the number of true entries of active among one
	// block's lanes — it is maintained by reset/popMask and by the
	// if.begin handlers, the only places the mask changes.
	activeN int
	// regs is the flattened register file: lane l of block b of register
	// r is regs[int(r)*stride + b*width + l], stride being the lanes the
	// warp's shape holds per register. A register's column is its first
	// lanes = blocks·width words.
	regs []kernel.Word
	// active is the SIMT mask, one entry per lane the shape holds: every
	// block's lanes carry the same mask. Lanes masked off by an if.begin
	// stay inactive until the matching if.end, so with no if region open
	// (maskDepth 0) every entry is true.
	active []bool
	// form is each register's symbolic state; see regForm.
	form [256]regForm

	// maskStack saves outer masks across nested if regions; maskDepth is
	// the live depth (entries above it are reusable storage).
	maskStack [][]bool
	maskDepth int

	// shared is the blocks' shared memory, one slab of rows of width
	// words per block, blocks side by side: word a of block b is
	// shared[(a/width)·stride + b·width + a%width] (slot), stride being
	// width times the blocks the shape holds. A shared run at one aligned
	// address in every block is then one copy across the batch, as a
	// register column is; on a one-block shape the slot is the address.
	shared      []kernel.Word
	sharedWords int
	// rowShift is log2(width) when width is a power of two, else -1: slot
	// then splits an address with a shift and a mask, not two divisions.
	rowShift int

	// addrs is scratch for gathering an address column, one entry per
	// lane the shape holds.
	addrs []int

	// trapBlock is the batch block, counted from the first, whose lanes
	// raised the trap an exec helper just returned; 0 on a scheduled warp.
	trapBlock int

	// global is the global memory the warp's global views read (see
	// formGlobalView), set by the load that makes one and cleared when
	// its replay batch ends, so that an idle warp keeps no device's memory
	// alive.
	global []kernel.Word
}

// newWarp allocates a warp of shape.
func newWarp(shape warpShape) *warp {
	stride := shape.blocks * shape.width
	w := &warp{
		width:       shape.width,
		regs:        make([]kernel.Word, shape.regs*stride),
		active:      make([]bool, stride),
		shared:      make([]kernel.Word, (shape.shared+shape.width-1)/shape.width*stride),
		sharedWords: shape.shared,
		rowShift:    -1,
		addrs:       make([]int, stride),
	}
	if shape.width&(shape.width-1) == 0 {
		w.rowShift = bits.TrailingZeros(uint(shape.width))
	}
	for i := range w.active {
		w.active[i] = true
	}
	return w
}

// stride returns the lanes the warp holds per register, and the words of
// one row of its shared slab.
func (w *warp) stride() int { return len(w.active) }

// slot returns the index in w.shared of block b's shared word a, in
// range (see shared).
func (w *warp) slot(b, a int) int {
	if s := w.rowShift; s >= 0 {
		return a>>s*w.stride() + b*w.width + a&(w.width-1)
	}
	return a/w.width*w.stride() + b*w.width + a%w.width
}

// reset prepares the warp to run blocks consecutive blocks from blockID
// from a clean state: every register the uniform 0, zeroed shared memory,
// full mask, pc 0. Only a register's anchor lanes (see execForm) are
// cleared; the rest are stale.
func (w *warp) reset(blockID, blocks int) {
	w.blockID = blockID
	w.pc = 0
	w.state = wReady
	w.readyAt = 0
	w.instrs = 0
	w.atomSer = 0
	w.trapBlock = 0
	w.setBlocks(blocks)
	initial := w.fresh
	stride := w.stride()
	for base, r := 0, 0; base < len(w.regs); base, r = base+stride, r+1 {
		w.regs[base] = 0
		if w.width > 1 {
			w.regs[base+1] = 0
		}
		if blocks > 1 {
			w.regs[base+w.width] = 0
		}
		w.form[r] = initial
	}
	if w.maskDepth > 0 {
		// The last run ended inside an if region.
		for i := range w.active {
			w.active[i] = true
		}
		w.maskDepth = 0
	}
	w.activeN = w.width
	clear(w.shared)
}

// setBlocks sets how many blocks the warp runs. Shrinking a batch keeps the
// first blocks' state exactly: their registers, forms, shared memory and
// mask all lie in the prefix.
func (w *warp) setBlocks(blocks int) {
	w.blocks = blocks
	w.lanes = blocks * w.width
	w.fresh = formAffine
	if w.lanes > 2 {
		w.fresh = formStale
	}
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
	for _, a := range w.active[:w.width] {
		if a {
			n++
		}
	}
	w.activeN = n
	return true
}

// regForm is the form a register's column is in: whether the register
// has a symbolic form, whether lanes are left to write out, and whether
// its lanes are read in place from memory.
type regForm uint8

const (
	// formFlat: every lane of the column holds its value, and the register
	// has no symbolic form.
	formFlat regForm = 0
	// formUnwritten marks a column with lanes not written out yet:
	// execColumn writes them out before anything reads the column lane by
	// lane.
	formUnwritten regForm = 1
	// formSymbolic marks a register with a symbolic form (see execForm),
	// held in its anchor lanes.
	formSymbolic regForm = 2
	// formAffine: symbolic, every lane written out.
	formAffine = formSymbolic
	// formStale: symbolic, the lanes past the anchors not written out.
	formStale = formSymbolic | formUnwritten
	// formRows: in a batch, every block's lanes hold one value, kept in
	// the block's lane 0; the other lanes are not written out. It has no
	// symbolic form: a broadcast load from shared memory leaves it, one
	// word per block.
	formRows = formUnwritten
	// formView: in a batch, the column is read in place from the shared
	// slab, from the index held in the register's lane 0 on: a fully
	// active load of a width-aligned run at one address in every block
	// leaves it, the blocks' rows lying side by side in one slab row. Its
	// lanes are not written out; execRead reads them where they lie.
	formView = 4 | formUnwritten
	// formGlobalView: formView over global memory (warp.global), left by a
	// fully active load of runs that abut across the batch.
	formGlobalView = 8 | formUnwritten
)

// batchAffine is a register in symbolic form across a batch: lane l of
// block b holds Base + Step·l + BStep·b in wrapping arithmetic. On a
// scheduled warp BStep is 0.
type batchAffine struct {
	kernel.Affine // block 0's lanes
	BStep         kernel.Word
}

// row returns block b's lanes.
func (f batchAffine) row(b int) kernel.Affine {
	return kernel.Affine{Base: f.Base + f.BStep*kernel.Word(b), Step: f.Step}
}

// col returns lane l across the blocks.
func (f batchAffine) col(l int) kernel.Affine {
	return kernel.Affine{Base: f.Base + f.Step*kernel.Word(l), Step: f.BStep}
}

// uniform reports a value that is the same on every lane of every block.
func (f batchAffine) uniform() bool { return f.Step == 0 && f.BStep == 0 }

// execAffine returns register r's symbolic form along the lanes of block
// 0, column base base, or false when it has none: lanes 0 and 1 of its
// column hold their values (on a one-lane warp, lane 0 alone).
func (w *warp) execAffine(r kernel.Reg, base int) (kernel.Affine, bool) {
	if w.form[r]&formSymbolic == 0 {
		return kernel.Affine{}, false
	}
	v0 := w.regs[base]
	if w.width == 1 {
		return kernel.Uniform(v0), true
	}
	return kernel.Affine{Base: v0, Step: w.regs[base+1] - v0}, true
}

// execForm returns register r's symbolic form across the batch, read from
// its anchor lanes — lanes 0 and 1 of block 0 and lane 0 of block 1 — or
// false when it has none.
func (w *warp) execForm(r kernel.Reg, base int) (batchAffine, bool) {
	if w.form[r]&formSymbolic == 0 {
		return batchAffine{}, false
	}
	v0 := w.regs[base]
	f := batchAffine{Affine: kernel.Uniform(v0)}
	if w.width > 1 {
		f.Step = w.regs[base+1] - v0
	}
	if w.blocks > 1 {
		f.BStep = w.regs[base+w.width] - v0
	}
	return f, true
}

// execSetAffine gives register r, column base base, the value f on every
// lane of a scheduled warp in O(1): it stores lanes 0 and 1 and leaves the
// rest stale. A batch needs execSetForm, which also stores the block step.
func (w *warp) execSetAffine(r kernel.Reg, base int, f kernel.Affine) {
	w.regs[base] = f.Base
	if w.width > 1 {
		w.regs[base+1] = f.Base + f.Step
	}
	w.form[r] = w.fresh
}

// execSetForm gives register r, column base base, the value f on every
// lane of every block in O(1): it stores the anchor lanes and leaves the
// rest stale.
func (w *warp) execSetForm(r kernel.Reg, base int, f batchAffine) {
	w.execSetAffine(r, base, f.Affine)
	if w.blocks > 1 {
		w.regs[base+w.width] = f.Base + f.BStep
	}
}

// execColumn returns register r's column, column base base, written out.
func (w *warp) execColumn(r kernel.Reg, base int) []kernel.Word {
	if w.form[r]&formUnwritten != 0 {
		w.execWriteOut(r, base)
	}
	return w.regs[base : base+w.lanes]
}

// execRead returns register r's column, column base base, for reading
// only: a view where it lies in memory, any other column written out.
// It inlines, as execColumn does.
func (w *warp) execRead(r kernel.Reg, base int) []kernel.Word {
	if w.form[r]&formUnwritten != 0 {
		return w.execReadUnwritten(r, base)
	}
	return w.regs[base : base+w.lanes]
}

// execReadUnwritten is execRead on a column with lanes not written out.
func (w *warp) execReadUnwritten(r kernel.Reg, base int) []kernel.Word {
	if m := w.execViewed(r, base); m != nil {
		return m
	}
	w.execWriteOut(r, base)
	return w.regs[base : base+w.lanes]
}

// execViewed returns the memory a view register r, column base base,
// reads, or nil when r is not a view.
func (w *warp) execViewed(r kernel.Reg, base int) []kernel.Word {
	var m []kernel.Word
	switch w.form[r] {
	case formView:
		m = w.shared
	case formGlobalView:
		m = w.global
	default:
		return nil
	}
	o := int(w.regs[base])
	return m[o : o+w.lanes : o+w.lanes]
}

// execFlushViews writes out every view of form whose lanes overlap
// indexes [lo, hi) of its memory: a store there is about to change them.
func (w *warp) execFlushViews(form regForm, lo, hi int) {
	stride := w.stride()
	for r, base := 0, 0; base < len(w.regs); r, base = r+1, base+stride {
		if w.form[r] != form {
			continue
		}
		if o := int(w.regs[base]); o < hi && lo < o+w.lanes {
			w.execWriteOut(kernel.Reg(r), base)
		}
	}
}

// execWriteOut writes the unwritten lanes of register r, column base
// base, out: from the memory it views, from its symbolic form, or each
// block's lane 0 across its lanes.
func (w *warp) execWriteOut(r kernel.Reg, base int) {
	if m := w.execViewed(r, base); m != nil {
		copy(w.regs[base:base+w.lanes], m)
		w.form[r] = formFlat
		return
	}
	f, sym := w.execForm(r, base)
	for b := 0; b < w.blocks; b++ {
		row := w.regs[base+b*w.width : base+(b+1)*w.width]
		if sym {
			f.row(b).Column(row)
			continue
		}
		for l := range row {
			row[l] = row[0]
		}
	}
	w.form[r] &^= formUnwritten
}

// execWrote records that register r's column was just written lane by
// lane: its symbolic form, if any, no longer holds.
func (w *warp) execWrote(r kernel.Reg) { w.form[r] = formFlat }
