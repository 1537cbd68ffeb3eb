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

// execDec executes w's next instruction from the decoded program and
// prices it, charging nothing (execCharge does): all active lanes execute
// the instruction in lockstep, and control flow manipulates the mask per
// the SIMT rules in the package comment. Every case advances pc itself;
// the cost's lanes are the lanes active at issue.
func (ls *launchState) execDec(w *warp) (c issueCost, err error) {
	ins := ls.dec.Ins
	if w.pc < 0 || w.pc >= len(ins) {
		return c, errPCRange
	}
	in := &ins[w.pc]
	w.instrs++
	lanes := int32(w.activeN)

	switch in.Op {
	case kernel.OpLdGlobal, kernel.OpStGlobal:
		c, err = ls.execGlobal(w, in)

	case kernel.OpLdShared, kernel.OpStShared:
		c, err = ls.execShared(w, in)

	case kernel.OpAtomAdd, kernel.OpAtomMax, kernel.OpAtomExch, kernel.OpAtomCAS:
		if in.Imm == kernel.AtomGlobal {
			c, err = ls.execAtomGlobal(w, in)
		} else {
			c, err = ls.execAtomShared(w, in)
		}

	case kernel.OpBarrier:
		c.kind = costBarrier
		w.pc++

	case kernel.OpJump:
		w.pc = int(in.Target)

	case kernel.OpBrNZ:
		var taken bool
		if taken, err = w.execCond(in.Ra, int(in.A)); err == nil {
			w.pc = execNext(w.pc, taken, in)
		}

	case kernel.OpIfBegin:
		enter, divergent, _ := w.execIfBegin(in.Ra, int(in.A)) // one block: no variance
		if divergent {
			c.kind = costDivergent
		}
		w.pc = execNext(w.pc, !enter, in)

	case kernel.OpIfEnd:
		if !w.popMask() {
			return c, errMaskPop
		}
		w.pc++

	case kernel.OpHalt:
		c.kind = costHalt

	default:
		if err = ls.execALU(w, in); err == nil {
			w.pc++
		}
	}
	c.lanes = lanes
	return c, err
}

// execNext returns the pc after the branch in at pc: its target when jump
// is set, else the next instruction.
func execNext(pc int, jump bool, in *kernel.DInstr) int {
	if jump {
		return int(in.Target)
	}
	return pc + 1
}

// costKind is which counters an issue charges beyond the issue itself.
type costKind uint8

const (
	costIssue      costKind = iota // the issue slot only
	costBarrier                    // a barrier
	costDivergent                  // an if.begin whose active lanes split
	costHalt                       // the block retires
	costGlobal                     // a global load or store
	costShared                     // a shared load or store
	costAtomShared                 // a shared atomic
	costAtomGlobal                 // a global atomic
)

// issueCost is what one warp-instruction issue costs, as execDec prices
// it: the facts the timing rules read, and nothing of the data. The
// BlockUniform certificate proves every block of a launch issues the same
// sequence of costs, so a memoized launch times every block by stepping
// block 0's recorded costs (execCursor). Four fields keep it in registers
// from execDec to execCharge.
type issueCost struct {
	// lanes are the lanes active at issue.
	lanes int32
	// trans is l, the memory blocks a global access or atomic touches; 0
	// for every other issue.
	trans int32
	// degree is a shared access's conflict degree or an atomic's
	// serialisation degree.
	degree int32
	kind   costKind
}

// execCharge charges w the issue cost c at the current cycle. It and
// execChargeKind are the one place the timing rules live, for the
// scheduled interpreter and the cursor step alike. An issue that costs the
// slot only, the common case, needs no more, and execCharge is small
// enough to inline into both.
func (ls *launchState) execCharge(w *warp, c issueCost) {
	ls.stats.InstructionsIssued++
	ls.stats.LaneOps += int64(c.lanes)
	if c.kind != costIssue {
		ls.execChargeKind(w, c)
	}
}

// execChargeKind charges the counters of c's kind and, for a memory
// access, the wait: its latency, behind the device-wide memory controller
// for a global one.
func (ls *launchState) execChargeKind(w *warp, c issueCost) {
	switch c.kind {
	case costBarrier:
		ls.stats.Barriers++
		return
	case costDivergent:
		ls.stats.DivergentBranches++
		return
	case costHalt:
		w.state = wDone
		return
	}
	cfg := &ls.d.cfg
	extra := int64(cfg.ExtraTransactionCycles)
	var lat int64
	switch c.kind {
	case costGlobal:
		ls.stats.GlobalAccesses++
		ls.stats.GlobalTransactions += int64(c.trans)
		if c.trans > 1 {
			ls.stats.UncoalescedAccesses++
		}
		lat = int64(cfg.GlobalLatencyCycles) + int64(c.trans-1)*extra
	case costShared:
		ls.stats.SharedAccesses++
		if c.degree > 1 {
			ls.stats.BankConflicts++
			ls.stats.MaxConflictDegree = max(ls.stats.MaxConflictDegree, int(c.degree))
		}
		lat = int64(cfg.SharedLatencyCycles)
		if cfg.SerialiseBankConflicts && c.degree > 1 {
			lat *= int64(c.degree)
		}
	case costAtomShared, costAtomGlobal:
		ser := int64(c.degree - 1)
		ls.stats.AtomicAccesses++
		ls.stats.AtomicSerialisations += ser
		ls.stats.MaxAtomicDegree = max(ls.stats.MaxAtomicDegree, int(c.degree))
		w.atomSer += ser
		// Conflicting lanes replay: degree shared latencies, or degree−1
		// extra transactions on top of the coalesced global access.
		lat = int64(cfg.SharedLatencyCycles) * int64(c.degree)
		if c.kind == costAtomGlobal {
			lat = int64(cfg.GlobalLatencyCycles) + int64(c.trans-1)*extra + ser*extra
		}
	}
	w.state = wWaiting
	w.readyAt = ls.cycle + lat
	// Bandwidth: the device-wide controller serialises transactions at
	// MemServiceCycles apiece; a warp's request completes no earlier than
	// the controller drains it, so saturated DRAM backs up into warp
	// stalls that concurrency cannot hide.
	if svc := int64(cfg.MemServiceCycles); svc > 0 && c.trans > 0 {
		ls.memFree = max(ls.memFree, ls.cycle) + int64(c.trans)*svc
		w.readyAt = max(w.readyAt, ls.memFree)
	}
}

// execCursor issues cursor warp w's next instruction: it charges the cost
// block 0 recorded at w's position in the trace, which is w's pc.
func (ls *launchState) execCursor(w *warp) {
	s := ls.scratch
	c := s.costs[s.trace[w.pc]]
	w.pc++
	w.instrs++
	ls.execCharge(w, c)
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
	ac := w.execRead(in.Ra, int(in.A))
	bc := ac // unused by an immediate form
	if !sem.Imm {
		bc = w.execRead(in.Rb, int(in.B))
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
		twin.Column(dc, w.execRead(in.Ra, int(in.A)), nil, b.Base)
	case aok && a.uniform() && sem.Commutes:
		twin.Column(dc, w.execRead(in.Rb, int(in.B)), nil, a.Base)
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
	col := w.execRead(r, base)
	d := int(in.D)
	for b := 0; b < w.blocks; b++ {
		lo := b * w.width
		v := w.regs[rows+lo] // read before the row is written: Rd may be this operand
		twin.Column(w.regs[d+lo:d+lo+w.width], col[lo:lo+w.width], nil, v)
	}
}

// execMulAdd runs the pair mul t, x, y; add acc, acc, t — mul and add —
// on a fully active batch in one pass per block (kernel.MulAdd) when x or
// y has one value per block (formRows), reporting whether it did. acc must
// be none of t, x and y. t is written as the pair leaves it, so no later
// reader needs to know the pair was fused; acc is written out first, so
// the sum lands in its column, not in memory it views.
func (w *warp) execMulAdd(mul, add *kernel.DInstr) bool {
	acc := add.Rd
	if w.activeN != w.width || add.Op != kernel.OpAdd || add.Ra != acc || add.Rb != mul.Rd ||
		acc == mul.Rd || acc == mul.Ra || acc == mul.Rb {
		return false
	}
	var rows int
	var y []kernel.Word
	switch {
	case w.form[mul.Ra] == formRows:
		rows, y = int(mul.A), w.execRead(mul.Rb, int(mul.B))
	case w.form[mul.Rb] == formRows:
		rows, y = int(mul.B), w.execRead(mul.Ra, int(mul.A))
	default:
		return false
	}
	ac := w.execColumn(acc, int(add.D))
	t := int(mul.D)
	for b := 0; b < w.blocks; b++ {
		lo := b * w.width
		v := w.regs[rows+lo] // read before the row is written: t may be x
		kernel.MulAdd(w.regs[t+lo:t+lo+w.width], ac[lo:lo+w.width], y[lo:lo+w.width], v)
	}
	w.execWrote(mul.Rd)
	w.execWrote(acc)
	return true
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
