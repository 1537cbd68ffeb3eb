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
		return ls.execGlobal(w, in.Op, int(in.D), int(in.A), int(in.B))

	case kernel.OpLdShared, kernel.OpStShared:
		// advances pc itself on every path
		return ls.execShared(w, in.Op, int(in.D), int(in.A), int(in.B))

	case kernel.OpAtomAdd, kernel.OpAtomMax, kernel.OpAtomExch, kernel.OpAtomCAS:
		// both advance pc themselves on every path
		if in.Imm == kernel.AtomGlobal {
			return ls.execAtomGlobal(w, in.Op, int(in.D), int(in.A), int(in.B))
		}
		return ls.execAtomShared(w, in.Op, int(in.D), int(in.A), int(in.B))

	case kernel.OpBarrier:
		ls.stats.Barriers++

	case kernel.OpJump:
		w.pc = int(in.Target)
		return nil

	case kernel.OpBrNZ:
		taken, uniform, any := w.uniformCond(int(in.A))
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
		regs := w.regs
		a := int(in.A)
		width := ls.width
		divergent := false
		anyTrue := false
		for l := 0; l < width; l++ {
			if !w.active[l] {
				continue
			}
			if regs[a+l] != 0 {
				anyTrue = true
			} else {
				divergent = true
			}
		}
		if anyTrue && divergent {
			ls.stats.DivergentBranches++
		}
		if !anyTrue {
			w.pc = int(in.Target)
			return nil
		}
		w.pushMask()
		for l := 0; l < width; l++ {
			if w.active[l] && regs[a+l] == 0 {
				w.active[l] = false
				w.activeN--
			}
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
// touches the register file) for execDec and memo replay. The launch
// geometry opcodes read launch state here; every other compute opcode runs
// through its kernel.Sem, whose column form serves a fully active warp.
func (ls *launchState) execALU(w *warp, in *kernel.DInstr) error {
	if in.Op == kernel.OpNop {
		return nil
	}
	width := ls.width
	var active []bool
	if w.activeN != width {
		active = w.active
	}
	d := int(in.D)
	dc := w.regs[d : d+width : d+width]
	switch in.Op {
	case kernel.OpLaneID:
		if active == nil {
			for l := range dc {
				dc[l] = kernel.Word(l)
			}
			return nil
		}
		for l, on := range active {
			if on {
				dc[l] = kernel.Word(l)
			}
		}
		return nil
	case kernel.OpBlockID:
		broadcast(dc, active, kernel.Word(w.blockID))
		return nil
	case kernel.OpNumBlocks:
		broadcast(dc, active, kernel.Word(ls.numBlocks))
		return nil
	case kernel.OpBlockDim:
		broadcast(dc, active, kernel.Word(width))
		return nil
	}
	sem := in.Sem
	if sem == nil {
		return fmt.Errorf("%w: %v", errBadOpcode, in.Op)
	}
	a, b := int(in.A), int(in.B)
	ac, bc := w.regs[a:a+width:a+width], w.regs[b:b+width:b+width]
	if active == nil && !sem.Trap {
		sem.Column(dc, ac, bc, in.Imm) // the common case, one call deep
		return nil
	}
	if l := sem.Apply(dc, ac, bc, in.Imm, active); l >= 0 {
		return fmt.Errorf("%w: lane %d", errDivByZero, l)
	}
	return nil
}

// broadcast writes v into the lanes of column dc set in active (every
// lane when active is nil).
func broadcast(dc []kernel.Word, active []bool, v kernel.Word) {
	if active == nil {
		for l := range dc {
			dc[l] = v
		}
		return
	}
	for l, on := range active {
		if on {
			dc[l] = v
		}
	}
}
