package analyze

import (
	"math"
	"math/bits"

	"atgpu/internal/kernel"
)

// blockRun interprets one thread block abstractly, in lockstep over the
// warp's lanes, mirroring the simulator's issue-by-issue semantics. Lane
// values are intervals (value.go); the SIMT mask is split into a may-active
// and a must-active vector so unknown branch conditions stay sound: a lane
// is counted and checked if it may run, and updates are weakened to joins
// unless it must run. On kernels whose control flow and addresses never
// depend on loaded data the two masks coincide, every value at a decision
// point is known, and the abstract execution reproduces the device's
// counters exactly. Registers carry forms (forms.go) that keep uniform and
// lane-affine values out of the per-lane columns until a per-lane path
// reads them.
type blockRun struct {
	a       *analysis
	prog    *kernel.Program
	width   int
	blockID int

	regs  []V
	forms []regForm
	// may and must are the SIMT masks, lane l in bit l; mayN counts the
	// may-active lanes, mayEnd is one past the last of them (per-lane
	// loops over active lanes stop there), allMust reports every lane
	// must-active, and prefix is k when both masks are exactly lanes
	// 0..k-1 (width when allMust), else -1. newBlockRun, reset,
	// execIfBegin and popMask, the only places the masks change, keep
	// them up to date. masks holds the masks saved by open ifs.
	may, must uint64
	mayN      int
	mayEnd    int
	allMust   bool
	prefix    int
	masks     []laneMasks

	shared []V
	// Race log since the last barrier: which lanes wrote/read each cell,
	// and the pc of the last write (for witness reporting). amask tracks
	// atomic updates separately: atomic-vs-atomic on one cell serialises
	// (contention, not a race) while atomic-vs-plain in either direction
	// is a race.
	wmask, rmask []uint64
	amask        []uint64
	wpc          []int32
	// wlo..whi spans the cells plain stores and atomic updates logged in
	// wmask and amask since the last barrier (empty: wlo > whi). A load
	// of cells outside it cannot race.
	wlo, whi int64

	// atomSer accumulates Σ(degree−1) over this block's atomic accesses,
	// mirroring the simulator's per-warp serialisation counter.
	atomSer int64

	// addrs is the gathered per-lane address vector of a memory access:
	// the concrete address, or laneMasked / laneUnknown.
	addrs []int64
	// bankHits is bankDegree's per-bank lane count.
	bankHits []int

	pc       int
	instrs   int64
	fuel     int64
	brVisits map[int]int
}

const (
	laneMasked  = int64(-1)
	laneUnknown = int64(-2)
)

func newBlockRun(a *analysis, blockID int) *blockRun {
	width := a.opt.Machine.Width
	b := &blockRun{
		a:        a,
		prog:     a.prog,
		width:    width,
		blockID:  blockID,
		regs:     make([]V, a.prog.NumRegs*width),
		forms:    make([]regForm, a.prog.NumRegs),
		shared:   make([]V, a.prog.SharedWords),
		wmask:    make([]uint64, a.prog.SharedWords),
		rmask:    make([]uint64, a.prog.SharedWords),
		amask:    make([]uint64, a.prog.SharedWords),
		wpc:      make([]int32, a.prog.SharedWords),
		addrs:    make([]int64, width),
		bankHits: make([]int, width),
		fuel:     a.opt.fuel(),
		brVisits: make(map[int]int),
	}
	b.clearRegs()
	b.fullMask()
	b.synced()
	return b
}

// reset prepares the run for another block, reusing storage.
func (b *blockRun) reset(blockID int) {
	b.blockID = blockID
	b.pc = 0
	b.instrs = 0
	b.masks = b.masks[:0]
	b.atomSer = 0
	b.synced()
	b.fuel = b.a.opt.fuel()
	b.clearRegs()
	b.fullMask()
	for i := range b.shared {
		b.shared[i] = known(0)
		b.wmask[i] = 0
		b.rmask[i] = 0
		b.amask[i] = 0
	}
	if len(b.brVisits) > 0 {
		b.brVisits = make(map[int]int)
	}
}

// synced empties the span of un-barriered writes.
func (b *blockRun) synced() { b.wlo, b.whi = math.MaxInt64, -1 }

// logWrite widens the span of un-barriered writes to cell c.
func (b *blockRun) logWrite(c int64) { b.wlo, b.whi = min(b.wlo, c), max(b.whi, c) }

// unsynced reports whether an un-barriered write touched a cell in
// [lo, hi].
func (b *blockRun) unsynced(lo, hi int64) bool { return lo <= b.whi && b.wlo <= hi }

// clearRegs sets every register to the uniform 0 in O(1) per register.
func (b *blockRun) clearRegs() {
	for r := range b.forms {
		b.forms[r] = uniformForm(known(0))
	}
}

func (b *blockRun) base(r kernel.Reg) int { return int(r) * b.width }

// setLane writes v to a lane's register slot, weakening to a join when the
// lane only may be active (the old value survives if it is not).
func (b *blockRun) setLane(idx, lane int, v V) {
	if on(b.must, lane) {
		b.regs[idx] = v
	} else {
		b.regs[idx] = join(b.regs[idx], v)
	}
}

// laneMasks is a saved pair of SIMT masks.
type laneMasks struct{ may, must uint64 }

// on reports whether lane l is set in mask m.
func on(m uint64, l int) bool { return m>>(uint(l)&63)&1 != 0 }

func (b *blockRun) pushMask() { b.masks = append(b.masks, laneMasks{b.may, b.must}) }

func (b *blockRun) popMask() bool {
	n := len(b.masks)
	if n == 0 {
		return false
	}
	b.may, b.must = b.masks[n-1].may, b.masks[n-1].must
	b.masks = b.masks[:n-1]
	b.recount()
	return true
}

// run interprets the block to completion. It returns false when the whole
// launch analysis must stop (the simulator would trap and fail the launch,
// or the analysis budget ran out).
func (b *blockRun) run() bool {
	a := b.a
	for {
		if b.fuel <= 0 {
			a.reportf(Finding{Analyzer: AnalyzerExec, Severity: SevInfo, PC: b.pc, Block: b.blockID},
				"analysis budget exhausted after %d instructions; results are partial", b.instrs)
			a.precise = false
			return false
		}
		b.fuel--
		if b.pc < 0 || b.pc >= len(b.prog.Instrs) {
			a.reportf(Finding{Analyzer: AnalyzerExec, Severity: SevError, PC: b.pc, Block: b.blockID},
				"program counter out of range")
			return false
		}
		in := b.prog.Instrs[b.pc]
		b.instrs++
		a.stats.InstructionsIssued++
		a.stats.LaneOps += int64(b.mayN)

		switch in.Op {
		case kernel.OpNop:

		case kernel.OpConst:
			b.broadcast(in.Rd, known(in.Imm))

		case kernel.OpMov:
			if b.allMust && b.forms[in.Ra].kind != formColumn {
				f := b.forms[in.Ra]
				f.out = in.Rd == in.Ra && f.out
				b.forms[in.Rd] = f
				break
			}
			ra := b.col(in.Ra)
			d := b.dst(in.Rd)
			for l := 0; l < b.mayEnd; l++ {
				if on(b.may, l) {
					b.setLane(d+l, l, b.regs[ra+l])
				}
			}

		case kernel.OpLaneID:
			if b.allMust {
				b.forms[in.Rd] = affineForm(kernel.Affine{Step: 1}, b.width)
				break
			}
			d := b.dst(in.Rd)
			for l := 0; l < b.mayEnd; l++ {
				if on(b.may, l) {
					b.setLane(d+l, l, known(int64(l)))
				}
			}

		case kernel.OpBlockID:
			b.broadcast(in.Rd, known(int64(b.blockID)))

		case kernel.OpNumBlocks:
			b.broadcast(in.Rd, known(int64(b.a.opt.Blocks)))

		case kernel.OpBlockDim:
			b.broadcast(in.Rd, known(int64(b.width)))

		case kernel.OpLdGlobal, kernel.OpStGlobal:
			if !b.execGlobal(in) {
				return false
			}
			continue // pc advanced inside

		case kernel.OpLdShared, kernel.OpStShared:
			if !b.execShared(in) {
				return false
			}
			continue // pc advanced inside

		case kernel.OpAtomAdd, kernel.OpAtomMax, kernel.OpAtomExch, kernel.OpAtomCAS:
			if !b.execAtom(in) {
				return false
			}
			continue // pc advanced inside

		case kernel.OpBarrier:
			a.stats.Barriers++
			b.checkBarrier()
			// A barrier orders every lane's shared accesses: the race log
			// restarts empty.
			for i := range b.wmask {
				b.wmask[i] = 0
				b.rmask[i] = 0
				b.amask[i] = 0
			}
			b.synced()

		case kernel.OpJump:
			b.pc = int(in.Target)
			continue

		case kernel.OpBrNZ:
			cont, ok := b.execBrNZ(in)
			if !ok {
				return false
			}
			if cont {
				continue
			}

		case kernel.OpIfBegin:
			if b.execIfBegin(in) {
				continue
			}

		case kernel.OpIfEnd:
			if !b.popMask() {
				a.reportf(Finding{Analyzer: AnalyzerExec, Severity: SevError, PC: b.pc, Block: b.blockID},
					"if.end without saved mask")
				return false
			}

		case kernel.OpHalt:
			a.stats.BlocksExecuted++
			if b.instrs > a.stats.MaxWarpInstrs {
				a.stats.MaxWarpInstrs = b.instrs
			}
			if b.atomSer > a.stats.MaxWarpAtomicSerial {
				a.stats.MaxWarpAtomicSerial = b.atomSer
			}
			return true

		default:
			sem := in.Op.Semantics()
			if sem == nil {
				a.reportf(Finding{Analyzer: AnalyzerExec, Severity: SevError, PC: b.pc, Block: b.blockID},
					"undefined opcode %v", in.Op)
				return false
			}
			if !b.execCompute(&in, sem) {
				return false
			}
		}
		b.pc++
	}
}

// broadcast writes v to every active lane of rd, in O(1) on a fully
// must-active block.
func (b *blockRun) broadcast(rd kernel.Reg, v V) {
	if b.allMust {
		b.forms[rd] = uniformForm(v)
		return
	}
	d := b.dst(rd)
	for l := 0; l < b.mayEnd; l++ {
		if on(b.may, l) {
			b.setLane(d+l, l, v)
		}
	}
}

// execCompute runs a compute instruction with semantics sem. When the
// result has a form (formCompute), a fully must-active block keeps it and
// any other writes it out to the active lanes; otherwise the instruction
// runs lane by lane through the opcode's interval transfer. A lane whose
// divisor may be 0 is reported instead; it returns false when that lane
// traps the launch.
func (b *blockRun) execCompute(in *kernel.Instr, sem *kernel.Sem) bool {
	imm := uniformForm(known(in.Imm))
	sb := &imm
	if !sem.Imm {
		sb = &b.forms[in.Rb]
	}
	if f, ok := formCompute(sem, &b.forms[in.Ra], sb, b.width); ok {
		if b.allMust {
			b.forms[in.Rd] = f
			return true
		}
		d := b.dst(in.Rd)
		for l := 0; l < b.mayEnd; l++ {
			if on(b.may, l) {
				b.setLane(d+l, l, f.lane(l))
			}
		}
		return true
	}
	// The class's rule is chosen once; the loop spells out vTransfer so
	// that a lane costs one call through the lane function or the rule.
	rule, lane, trap := absRules[sem.Class], sem.Lane, sem.Trap
	ra, rb := b.col(in.Ra), -1
	if !sem.Imm {
		rb = b.col(in.Rb)
	}
	d := b.dst(in.Rd)
	y := imm.v
	for l := 0; l < b.mayEnd; l++ {
		if !on(b.may, l) {
			continue
		}
		if rb >= 0 {
			y = b.regs[rb+l]
		}
		x, v := b.regs[ra+l], top
		switch {
		case trap && y.contains(0):
			if !b.zeroDivisor(sem.Imm, l, y) {
				return false
			}
		case x.IsKnown() && y.IsKnown():
			v = known(lane(x.Lo, y.Lo))
		default:
			v = rule(sem, x, y)
		}
		b.setLane(d+l, l, v)
	}
	return true
}

// zeroDivisor reports lane l's divisor y, which may be 0; imm says it is
// the instruction's immediate. The device traps a zero divisor only on an
// active lane, so it returns false, the launch trapping, only for a known
// zero on a lane that must run.
func (b *blockRun) zeroDivisor(imm bool, l int, y V) bool {
	f := Finding{Analyzer: AnalyzerBounds, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: []int{l}}
	if y.IsKnown() && on(b.must, l) {
		if imm {
			b.a.reportf(f, "division by constant zero in lane %d traps the kernel", l)
		} else {
			b.a.reportf(f, "division by zero in lane %d traps the kernel", l)
		}
		return false
	}
	b.a.precise = false
	f.Severity = SevWarning
	if imm {
		b.a.reportf(f, "possible division by constant zero (lane %d may be active)", l)
	} else {
		b.a.reportf(f, "possible division by zero (lane %d divisor in [%d, %d])", l, y.Lo, y.Hi)
	}
	return true
}

// checkBarrier is the barrier-divergence analyzer: a barrier that executes
// while any lane of the block is masked off deadlocks lockstep hardware
// (the masked lanes can never arrive). The simulator's one-warp blocks
// trivially satisfy barriers, so this is a purely static verdict.
func (b *blockRun) checkBarrier() {
	active := b.mayN
	if active != b.width {
		inactive, act := -1, -1
		for l := 0; l < b.width; l++ {
			if on(b.may, l) && act < 0 {
				act = l
			}
			if !on(b.may, l) && inactive < 0 {
				inactive = l
			}
		}
		b.a.reportf(Finding{Analyzer: AnalyzerDivergence, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: witness(act, inactive)},
			"barrier under divergent control: %d of %d lanes active (lane %d can never arrive — deadlock on lockstep hardware)",
			active, b.width, inactive)
		return
	}
	if !b.allMust {
		b.a.reportf(Finding{Analyzer: AnalyzerDivergence, Severity: SevWarning, PC: b.pc, Block: b.blockID},
			"barrier may execute under divergent control (branch condition not statically known)")
	}
}

func witness(lanes ...int) []int {
	out := make([]int, 0, len(lanes))
	for _, l := range lanes {
		if l >= 0 {
			out = append(out, l)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// execIfBegin mirrors the device's two-pass divergence handling. Returns
// true when pc was redirected (whole-warp skip).
func (b *blockRun) execIfBegin(in kernel.Instr) bool {
	a := b.a
	taken, notTaken, unknown := b.truths(in.Ra)
	if taken == 0 && unknown == 0 {
		// No lane takes the body: jump past it without pushing a mask.
		b.pc = int(in.Target)
		return true
	}
	if unknown != 0 {
		a.precise = false
	}
	if taken != 0 && notTaken != 0 {
		a.stats.DivergentBranches++
	}
	b.pushMask()
	if notTaken == 0 && unknown == 0 {
		return false // every active lane takes the body: the masks stay
	}
	b.may &^= notTaken
	b.must &^= notTaken | unknown
	b.recount()
	return false
}

// truths classifies register r's value on the may-active lanes as a branch
// condition: the masks of the lanes where it is known true, known false,
// and undecidable. A uniform register costs O(1).
func (b *blockRun) truths(r kernel.Reg) (isTrue, isFalse, unknown uint64) {
	if f := b.forms[r]; f.kind == formUniform {
		switch f.v.truth() {
		case truthTrue:
			return b.may, 0, 0
		case truthFalse:
			return 0, b.may, 0
		}
		return 0, 0, b.may
	}
	ra := b.col(r)
	for l := 0; l < b.mayEnd; l++ {
		if !on(b.may, l) {
			continue
		}
		switch b.regs[ra+l].truth() {
		case truthTrue:
			isTrue |= laneBit(l)
		case truthFalse:
			isFalse |= laneBit(l)
		default:
			unknown |= laneBit(l)
		}
	}
	return isTrue, isFalse, unknown
}

// execBrNZ mirrors the device's uniform branch. Returns (pcRedirected,
// keepGoing): the divergent and no-active-lane cases trap the launch.
func (b *blockRun) execBrNZ(in kernel.Instr) (bool, bool) {
	a := b.a
	isTrue, isFalse, unknown := b.truths(in.Ra)
	if b.mayN == 0 {
		a.reportf(Finding{Analyzer: AnalyzerExec, Severity: SevError, PC: b.pc, Block: b.blockID},
			"uniform branch with no active lanes traps the kernel")
		return false, false
	}
	if isTrue != 0 && isFalse != 0 {
		// The lowest lane of each side witnesses the divergence.
		trueLane, falseLane := bits.TrailingZeros64(isTrue), bits.TrailingZeros64(isFalse)
		a.reportf(Finding{Analyzer: AnalyzerDivergence, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: witness(trueLane, falseLane)},
			"divergent uniform branch: loop condition differs across lanes (%d vs %d) — the device traps this launch",
			trueLane, falseLane)
		return false, false
	}
	if unknown != 0 {
		// Data-dependent trip count: keep looping up to the budget, then
		// force the exit edge so the analysis terminates.
		a.precise = false
		b.brVisits[b.pc]++
		if b.brVisits[b.pc] > a.opt.loopBudget() {
			b.pc = int(in.Target)
			return true, true
		}
		return false, true
	}
	if isTrue != 0 {
		b.pc = int(in.Target)
		return true, true
	}
	return false, true
}
