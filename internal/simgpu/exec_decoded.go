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
		taken, uniform, any := w.execCond(in.Ra, int(in.A))
		if !any {
			return errNoActiveBr
		}
		if !uniform {
			return ErrDivergentLoop
		}
		if taken {
			w.pc = int(in.Target)
			return nil
		}

	case kernel.OpIfBegin:
		enter, divergent := w.execIfBegin(in.Ra, int(in.A))
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
// the launch geometry opcodes and const give an affine or uniform result,
// and every other opcode asks its kernel.Sem for one. A non-trapping
// opcode with one uniform operand and no symbolic result runs its
// immediate twin's column on the other operand, the uniform value as the
// immediate: a uniform Rb always, a uniform Ra when the opcode commutes.
// Otherwise it writes the operands out and runs the Sem's column form, or
// Apply on a masked warp or a trapping opcode.
func (ls *launchState) execALU(w *warp, in *kernel.DInstr) error {
	width := ls.width
	full := w.activeN == width
	switch in.Op {
	case kernel.OpNop:
		return nil
	case kernel.OpLaneID:
		w.execGeometry(in, full, kernel.Affine{Step: 1})
		return nil
	case kernel.OpBlockID:
		w.execGeometry(in, full, kernel.Uniform(kernel.Word(w.blockID)))
		return nil
	case kernel.OpNumBlocks:
		w.execGeometry(in, full, kernel.Uniform(kernel.Word(ls.numBlocks)))
		return nil
	case kernel.OpBlockDim:
		w.execGeometry(in, full, kernel.Uniform(kernel.Word(width)))
		return nil
	case kernel.OpConst:
		w.execGeometry(in, full, kernel.Uniform(in.Imm))
		return nil
	}
	sem := in.Sem
	if sem == nil {
		return fmt.Errorf("%w: %v", errBadOpcode, in.Op)
	}
	d := int(in.D)
	if full {
		a, aok := w.execAffine(in.Ra, int(in.A))
		b, bok := kernel.Uniform(in.Imm), true
		if !sem.Imm {
			b, bok = w.execAffine(in.Rb, int(in.B))
		}
		if aok && bok {
			if f, trap, ok := sem.Symbolic(a, b, width); ok {
				if trap {
					return fmt.Errorf("%w: lane %d", errDivByZero, 0)
				}
				w.execSetAffine(in.Rd, d, f)
				return nil
			}
		}
		if twin := sem.Twin; twin != nil && !sem.Trap {
			dc := w.regs[d : d+width : d+width]
			switch {
			case bok && b.Step == 0:
				twin.Column(dc, w.execColumn(in.Ra, int(in.A)), nil, b.Base)
				w.execWrote(in.Rd)
				return nil
			case aok && a.Step == 0 && sem.Commutes:
				twin.Column(dc, w.execColumn(in.Rb, int(in.B)), nil, a.Base)
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
		sem.Column(w.regs[d:d+width:d+width], ac, bc, in.Imm) // the common case
		w.execWrote(in.Rd)
		return nil
	}
	dc := w.regs[d : d+width : d+width]
	var active []bool
	if !full {
		// Masked lanes keep their values: write the destination out.
		active = w.active
		dc = w.execColumn(in.Rd, d)
	}
	if l := sem.Apply(dc, ac, bc, in.Imm, active); l >= 0 {
		return fmt.Errorf("%w: lane %d", errDivByZero, l)
	}
	w.execWrote(in.Rd)
	return nil
}

// execGeometry gives the destination of in the value f: in O(1) on a fully
// active warp, else on the active lanes of the written-out column.
func (w *warp) execGeometry(in *kernel.DInstr, full bool, f kernel.Affine) {
	if full {
		w.execSetAffine(in.Rd, int(in.D), f)
		return
	}
	dc := w.execColumn(in.Rd, int(in.D))
	for l, on := range w.active {
		if on {
			dc[l] = f.Lane(l)
		}
	}
	w.execWrote(in.Rd)
}
