package simgpu

import (
	"fmt"

	"atgpu/internal/kernel"
)

// This file is the interpreter: the per-launch hot loop over
// kernel.Decoded instructions. The speed comes from per-instruction
// precomputed register-column bases, the kernel table's column forms for
// fully active warps (no per-lane mask check, no per-lane opcode
// dispatch), and zero per-step allocation — the atgpu-vet hotalloc pass
// forbids append/make in every exec*/replay* function of this package.
// The test-only reference stepper in internal/algorithms is its
// differential oracle.

// execDec issues exactly one warp-instruction for w from the decoded
// program. All active lanes execute the instruction in lockstep; control
// flow manipulates the mask per the SIMT rules in the package comment.
func (ls *launchState) execDec(w *warp) error {
	ins := ls.dec.Ins
	if w.pc < 0 || w.pc >= len(ins) {
		return errPCRange
	}
	in := &ins[w.pc]
	w.instrs++
	ls.stats.InstructionsIssued++
	ls.stats.LaneOps += int64(w.activeN)

	switch in.Op {
	case kernel.OpLdGlobal, kernel.OpStGlobal:
		// advances pc itself on every path
		return ls.execGlobal(w, in)

	case kernel.OpLdShared, kernel.OpStShared:
		// advances pc itself on every path
		return ls.execShared(w, in)

	case kernel.OpAtomAdd, kernel.OpAtomMax, kernel.OpAtomExch, kernel.OpAtomCAS:
		// both advance pc themselves on every path
		if in.Imm == kernel.AtomGlobal {
			return ls.execAtomGlobal(w, in)
		}
		return ls.execAtomShared(w, in)

	case kernel.OpBarrier:
		ls.stats.Barriers++

	case kernel.OpJump:
		w.pc = int(in.Target)
		return nil

	case kernel.OpBrNZ:
		taken, err := w.execCond(in.Ra, int(in.A))
		if err != nil {
			return err
		}
		if taken {
			w.pc = int(in.Target)
			return nil
		}

	case kernel.OpIfBegin:
		enter, divergent, _ := w.execIfBegin(in.Ra, int(in.A)) // one block: no variance
		if divergent {
			ls.stats.DivergentBranches++
		}
		if !enter {
			w.pc = int(in.Target)
			return nil
		}

	case kernel.OpIfEnd:
		if !w.popMask() {
			return errMaskPop
		}

	case kernel.OpHalt:
		w.state = wDone
		return nil

	default:
		if err := ls.execALU(w, in); err != nil {
			return err
		}
	}

	w.pc++
	return nil
}

// execALU evaluates one decoded compute instruction (everything that only
// touches the register file) for execDec and memo replay. On a fully
// active warp whose operands have symbolic forms it works on the forms:
// the launch geometry opcodes and const give a symbolic result, and every
// other opcode asks its kernel.Sem for one. A non-trapping opcode with one
// uniform operand and no symbolic result runs its immediate twin's column
// on the other operand, the uniform value as the immediate: a uniform Rb
// always, a uniform Ra when the opcode commutes. A batch of several
// blocks takes these paths through execBatchForms, whose forms carry a
// block step; the one-block path stays free of it. Otherwise it writes the
// operands out and runs the Sem's column form, or Apply on a masked warp
// or a trapping opcode. Every column spans all of a batch's blocks; a trap
// names the lowest block's lane (w.trapBlock).
func (ls *launchState) execALU(w *warp, in *kernel.DInstr) error {
	full := w.activeN == ls.width
	switch in.Op {
	case kernel.OpNop:
		return nil
	case kernel.OpLaneID:
		w.execGeometry(in, full, batchAffine{Affine: kernel.Affine{Step: 1}})
		return nil
	case kernel.OpBlockID:
		w.execGeometry(in, full, batchAffine{Affine: kernel.Uniform(kernel.Word(w.blockID)), BStep: 1})
		return nil
	case kernel.OpNumBlocks:
		w.execGeometry(in, full, batchAffine{Affine: kernel.Uniform(kernel.Word(ls.numBlocks))})
		return nil
	case kernel.OpBlockDim:
		w.execGeometry(in, full, batchAffine{Affine: kernel.Uniform(kernel.Word(w.width))})
		return nil
	case kernel.OpConst:
		w.execGeometry(in, full, batchAffine{Affine: kernel.Uniform(in.Imm)})
		return nil
	}
	sem := in.Sem
	if sem == nil {
		return fmt.Errorf("%w: %v", errBadOpcode, in.Op)
	}
	d := int(in.D)
	switch {
	case full && w.blocks > 1:
		if done, err := w.execBatchForms(in, sem); done {
			return err
		}
	case full:
		a, aok := w.execAffine(in.Ra, int(in.A))
		b, bok := kernel.Uniform(in.Imm), true
		if !sem.Imm {
			b, bok = w.execAffine(in.Rb, int(in.B))
		}
		if aok && bok {
			if f, trap, ok := sem.Symbolic(a, b, w.width); ok {
				if trap {
					return fmt.Errorf("%w: lane %d", errDivByZero, 0)
				}
				w.execSetAffine(in.Rd, d, f)
				return nil
			}
		}
		if twin := sem.Twin; twin != nil && !sem.Trap {
			switch {
			case bok && b.Step == 0:
				twin.Column(w.regs[d:d+w.width], w.execColumn(in.Ra, int(in.A)), nil, b.Base)
				w.execWrote(in.Rd)
				return nil
			case aok && a.Step == 0 && sem.Commutes:
				twin.Column(w.regs[d:d+w.width], w.execColumn(in.Rb, int(in.B)), nil, a.Base)
				w.execWrote(in.Rd)
				return nil
			}
		}
	}
	ac := w.execColumn(in.Ra, int(in.A))
	bc := ac // unused by an immediate form
	if !sem.Imm {
		bc = w.execColumn(in.Rb, int(in.B))
	}
	if full && !sem.Trap {
		sem.Column(w.regs[d:d+len(ac)], ac, bc, in.Imm) // the common case
		w.execWrote(in.Rd)
		return nil
	}
	dc := w.regs[d : d+len(ac)]
	var active []bool
	if !full {
		// Masked lanes keep their values: write the destination out.
		active = w.active[:len(ac)]
		dc = w.execColumn(in.Rd, d)
	}
	if l := sem.Apply(dc, ac, bc, in.Imm, active); l >= 0 {
		w.trapBlock = l / w.width
		return fmt.Errorf("%w: lane %d", errDivByZero, l%w.width)
	}
	w.execWrote(in.Rd)
	return nil
}

// execBatchForms is execALU's form paths for a fully active batch of
// several blocks: a symbolic result through execSymbolic, else the twin's
// column on an operand that is one value on every lane of every block, or
// block by block on one with a value per block (formRows). It reports
// whether it executed in, and the trap if it did and in trapped.
func (w *warp) execBatchForms(in *kernel.DInstr, sem *kernel.Sem) (done bool, err error) {
	d := int(in.D)
	a, aok := w.execForm(in.Ra, int(in.A))
	b, bok := batchAffine{Affine: kernel.Uniform(in.Imm)}, true
	if !sem.Imm {
		b, bok = w.execForm(in.Rb, int(in.B))
	}
	if aok && bok {
		if f, trap, ok := w.execSymbolic(sem, a, b); ok {
			if trap {
				return true, fmt.Errorf("%w: lane %d", errDivByZero, 0)
			}
			w.execSetForm(in.Rd, d, f)
			return true, nil
		}
	}
	twin := sem.Twin
	if twin == nil || sem.Trap {
		return false, nil
	}
	dc := w.regs[d : d+w.lanes]
	switch {
	case bok && b.uniform():
		twin.Column(dc, w.execColumn(in.Ra, int(in.A)), nil, b.Base)
	case aok && a.uniform() && sem.Commutes:
		twin.Column(dc, w.execColumn(in.Rb, int(in.B)), nil, a.Base)
	case !sem.Imm && w.form[in.Rb] == formRows:
		w.execRowsTwin(twin, in, in.Ra, int(in.A), int(in.B))
	case w.form[in.Ra] == formRows && sem.Commutes:
		w.execRowsTwin(twin, in, in.Rb, int(in.B), int(in.A))
	default:
		return false, nil
	}
	w.execWrote(in.Rd)
	return true, nil
}

// execRowsTwin runs twin, the immediate form of in's opcode, block by
// block on register r's column (column base base), each block's value of
// the formRows operand at column base rows as the immediate, into in's
// destination; the caller marks it written.
func (w *warp) execRowsTwin(twin *kernel.Sem, in *kernel.DInstr, r kernel.Reg, base, rows int) {
	col := w.execColumn(r, base)
	d := int(in.D)
	for b := 0; b < w.blocks; b++ {
		lo := b * w.width
		v := w.regs[rows+lo] // read before the row is written: Rd may be this operand
		twin.Column(w.regs[d+lo:d+lo+w.width], col[lo:lo+w.width], nil, v)
	}
}

// execSymbolic evaluates sem on operands a and b in symbolic form over a
// batch's blocks, through the opcode's one-axis rule kernel.Sem.Symbolic:
// along the lanes when no operand varies by block; along the batch's whole
// column when both are affine in a lane's index b·width + l across it
// (block step = width·step, as an index blockid·blockdim + laneid is);
// along the blocks when no operand varies by lane; and otherwise along the
// lanes of every block, keeping the result when the blocks' rows share a
// step and their bases step evenly. A trap (a uniform zero divisor) is at
// lane 0 of every block, so of block 0. ok false means the result has no
// symbolic form.
func (w *warp) execSymbolic(sem *kernel.Sem, a, b batchAffine) (d batchAffine, trap, ok bool) {
	if a.BStep == 0 && b.BStep == 0 {
		d.Affine, trap, ok = sem.Symbolic(a.Affine, b.Affine, w.width)
		return d, trap, ok
	}
	if wd := kernel.Word(w.width); a.BStep == a.Step*wd && b.BStep == b.Step*wd {
		f, _, ok := sem.Symbolic(a.Affine, b.Affine, w.lanes)
		return batchAffine{Affine: f, BStep: f.Step * wd}, false, ok
	}
	if a.Step == 0 && b.Step == 0 {
		f, _, ok := sem.Symbolic(a.col(0), b.col(0), w.blocks)
		return batchAffine{Affine: kernel.Uniform(f.Base), BStep: f.Step}, false, ok
	}
	for blk := 0; blk < w.blocks; blk++ {
		f, trap, ok := sem.Symbolic(a.row(blk), b.row(blk), w.width)
		switch {
		case trap || !ok:
			return batchAffine{}, false, false
		case blk == 0:
			d.Affine = f
		case blk == 1:
			d.BStep = f.Base - d.Base
			fallthrough
		default:
			if f != d.row(blk) {
				return batchAffine{}, false, false
			}
		}
	}
	return d, false, true
}

// execGeometry gives the destination of in the value f: in O(1) on a fully
// active warp, else on the active lanes of the written-out column.
func (w *warp) execGeometry(in *kernel.DInstr, full bool, f batchAffine) {
	if full {
		w.execSetForm(in.Rd, int(in.D), f)
		return
	}
	dc := w.execColumn(in.Rd, int(in.D))
	for b := 0; b < w.blocks; b++ {
		row := f.row(b)
		for l, on := range w.active[:w.width] {
			if on {
				dc[b*w.width+l] = row.Lane(l)
			}
		}
	}
	w.execWrote(in.Rd)
}
