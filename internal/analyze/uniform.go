package analyze

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
)

// BlockUniform certification
//
// The prover establishes, by one symbolic pass over the kernel, that every
// thread block of a launch executes the SAME instruction trace with the
// SAME per-position memory-transaction counts and latencies, differing only
// in OpBlockID-derived data, and that the blocks' global writes are
// mutually disjoint (no block reads or writes an address another block
// writes). A launch carrying this certificate is safe to simulate by
// steady-state block memoization (internal/simgpu/memo.go): scheduler
// behaviour becomes a function of relative state only, and elided blocks
// can be data-replayed in any order after the run.
//
// The abstract domain is a 2-D block grid. The block index k is split as
// k = t·Q + R with Q = k / t and R = k % t for one launch-constant t, and
// each lane value is q·Q + r·R + c (exact over the whole grid box
// [0, ⌈H/t⌉) × [0, t)) or Top (unknown data, e.g. anything loaded from
// global memory). Until the kernel divides the block index by an immediate
// there is no split: t = H, Q ≡ 0 and values are r·k + c. The first such
// divi/modi restarts the trace with t set to its divisor; a later one by a
// different divisor is Top. A linear function takes its extremes at the
// box's corners, so bounds and condition truth are checked there; the box
// may hold points past H−1 when t does not divide H, which only makes the
// checks stricter.
//
// Concrete values (q = r = 0) are computed with exactly the device's Go
// int64 semantics, including wraparound, shift masking, and truncating
// division. Properly affine values carry magnitude guards so that no corner
// evaluation overflows. Anything the domain cannot express precisely
// becomes Top, and Top is REFUSED the moment it could steer the trace or
// timing: control conditions, branch conditions, memory addresses, and
// divisors must never be Top. Refusal is always sound — the launch simply
// runs under full simulation.
//
// The machine works on whole columns: a register holds one lane-affine
// column (lane l holds v + e·l), Top on every lane, or explicit per-lane
// values. Explicit values appear only after a partial-mask write or a
// shared gather that is not lane-affine, so compute ops on the common
// columns cost O(1) per instruction.

// ErrNotUniform is wrapped by every refusal reason.
var ErrNotUniform = errors.New("analyze: kernel is not provably block-uniform")

const (
	// uniformMaxMag bounds |q|, |r|, |c| (and a column's lane stride) of
	// properly affine values so that corner evaluation cannot overflow.
	uniformMaxMag = int64(1) << 40
	// uniformMaxBlocks bounds the certified launch size for the same reason
	// (2^40 · 2^21 · 2 + 2^40 < 2^63).
	uniformMaxBlocks = 1 << 21
	// uniformFuel caps the symbolic trace length.
	uniformFuel = 1 << 20
	// uniformMaxRuns caps the recorded global access runs.
	uniformMaxRuns = 4096
	// uniformMaxSpan caps the words one block's store constants may span:
	// the disjointness check keeps a bitmap over them.
	uniformMaxSpan = 1 << 22
	// uniformMaxProbes caps the disjointness check's bitmap probes.
	uniformMaxProbes = 1 << 24
)

// UniformCert records what was certified.
type UniformCert struct {
	Blocks int   // launch size the certificate covers
	Width  int   // warp width it was proved at
	Instrs int64 // warp-instructions in the per-block trace
}

// affv is one lane value q·Q + r·R + c over the block grid, or Top. Top
// is marked by r == topMark and keeps in c the pc of the instruction that
// made it; a Top operand passes it on to the result, so a refusal can name
// the instruction the unknown came from.
type affv struct{ q, r, c int64 }

const topMark = math.MinInt64

func affTop(pc int) affv   { return affv{r: topMark, c: int64(pc)} }
func affCon(v int64) affv  { return affv{c: v} }
func (v affv) top() bool   { return v.r == topMark }
func (v affv) isCon() bool { return v.q == 0 && v.r == 0 }

func mag(v int64) bool { return v >= -uniformMaxMag && v <= uniformMaxMag }

// guarded reports whether v is safe for affine arithmetic and corner
// evaluation (concrete values of any magnitude are exact but only small
// ones may be combined with properly affine values). Top is never guarded.
func (v affv) guarded() bool { return !v.top() && mag(v.q) && mag(v.r) && mag(v.c) }

// column is one register across the warp. Unless explicit, lane l holds v
// with e·l added to its constant; e is nonzero only for a guarded v, and
// is zero when v is Top. An explicit column holds lanes[l].
type column struct {
	v        affv
	e        int64
	explicit bool
	lanes    []affv
}

func (c *column) lane(l int) affv {
	if c.explicit {
		return c.lanes[l]
	}
	if c.e == 0 {
		return c.v
	}
	return affv{c.v.q, c.v.r, c.v.c + c.e*int64(l)}
}

// uniform reports a column holding the same value on every lane.
func (c *column) uniform() bool { return !c.explicit && c.e == 0 }

// runKey groups recorded global access runs: a run is n lane constants
// c0, c0+e, …, each offset by q·Q + r·R in block (Q, R).
type runKey struct {
	q, r, e int64
	n       int
	store   bool
}

type runFamily struct {
	runKey
	c0 []int64
}

// uniState is the symbolic machine: one representative block at symbolic
// grid position (Q, R).
type uniState struct {
	prog        *kernel.Program
	width       int
	blocks      int64
	globalWords int

	// t is the block-index divisor of the grid split, 0 before any; want
	// is the divisor a divi/modi asked to split by, triggering the restart.
	t, want    int64
	qmax, rmax int64

	regs      []column
	shared    []affv
	active    []bool
	nActive   int
	maskStack [][]bool
	maskDepth int
	pc        int
	instrs    int64

	// res is the scratch result column of a compute or gather.
	res column

	fams  []runFamily
	nruns int
}

// errRestart ends a trace that split the block index for the first time.
var errRestart = errors.New("analyze: restart with a block-grid split")

// BlockUniform proves the certificate for launching blocks thread blocks of
// prog at the given warp width over globalWords words of global memory. A
// nil error means certified; the error otherwise wraps ErrNotUniform with
// the refusal reason.
func BlockUniform(prog *kernel.Program, width, globalWords, blocks int) (*UniformCert, error) {
	if prog == nil {
		return nil, fmt.Errorf("%w: nil program", ErrNotUniform)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotUniform, err)
	}
	if width <= 0 || blocks <= 0 {
		return nil, fmt.Errorf("%w: width %d, blocks %d", ErrNotUniform, width, blocks)
	}
	if blocks > uniformMaxBlocks {
		return nil, fmt.Errorf("%w: %d blocks exceeds certifiable maximum %d", ErrNotUniform, blocks, uniformMaxBlocks)
	}
	u := &uniState{
		prog:        prog,
		width:       width,
		blocks:      int64(blocks),
		globalWords: globalWords,
		regs:        make([]column, prog.NumRegs),
		active:      make([]bool, width),
		res:         column{lanes: make([]affv, width)},
	}
	defer u.releaseShared()
	u.start(0)
	err := u.run()
	if err == errRestart {
		u.start(u.want)
		err = u.run()
	}
	if err != nil {
		return nil, err
	}
	if err := u.checkDisjoint(); err != nil {
		return nil, err
	}
	return &UniformCert{Blocks: blocks, Width: width, Instrs: u.instrs}, nil
}

// UniformProver adapts BlockUniform to the simgpu.UniformProver callback
// installed with Device.SetUniformProver.
func UniformProver(prog *kernel.Program, cfg simgpu.Config, blocks int) bool {
	_, err := BlockUniform(prog, cfg.WarpWidth, cfg.GlobalWords, blocks)
	return err == nil
}

// start resets the machine to pc 0 of a block on the grid split by t (no
// split when t is 0), keeping its buffers.
func (u *uniState) start(t int64) {
	u.t, u.want = t, 0
	u.qmax, u.rmax = 0, u.blocks-1
	if t != 0 {
		u.qmax, u.rmax = (u.blocks+t-1)/t-1, t-1
	}
	for i := range u.regs {
		u.regs[i] = column{lanes: u.regs[i].lanes}
	}
	for i := range u.shared {
		u.shared[i] = affv{}
	}
	for l := range u.active {
		u.active[l] = true
	}
	u.nActive, u.maskDepth = u.width, 0
	u.pc, u.instrs = 0, 0
	for i := range u.fams {
		u.fams[i].c0 = u.fams[i].c0[:0]
	}
	u.nruns = 0
}

// blockID is the block index over the grid: t·Q + R, or R before a split.
func (u *uniState) blockID() affv { return affv{q: u.t, r: 1} }

func (u *uniState) refusef(format string, args ...interface{}) error {
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("%w: pc %d: %s", ErrNotUniform, u.pc, msg)
}

// run traces the representative block to halt.
func (u *uniState) run() error {
	ins := u.prog.Instrs
	for {
		if u.pc < 0 || u.pc >= len(ins) {
			return u.refusef("pc out of range")
		}
		if u.instrs >= uniformFuel {
			return u.refusef("trace exceeds %d instructions", uniformFuel)
		}
		in := ins[u.pc]
		u.instrs++

		switch in.Op {
		case kernel.OpNop:

		case kernel.OpConst:
			u.setCol(in.Rd, column{v: affCon(in.Imm)})

		case kernel.OpMov:
			u.write(in.Rd, &u.regs[in.Ra])

		case kernel.OpLaneID:
			u.setCol(in.Rd, column{e: 1})

		case kernel.OpBlockID:
			u.setCol(in.Rd, column{v: u.blockID()})

		case kernel.OpNumBlocks:
			u.setCol(in.Rd, column{v: affCon(u.blocks)})

		case kernel.OpBlockDim:
			u.setCol(in.Rd, column{v: affCon(int64(u.width))})

		case kernel.OpLdGlobal, kernel.OpStGlobal:
			if err := u.execGlobal(in); err != nil {
				return err
			}

		case kernel.OpLdShared, kernel.OpStShared:
			if err := u.execShared(in); err != nil {
				return err
			}

		case kernel.OpAtomAdd, kernel.OpAtomMax, kernel.OpAtomExch, kernel.OpAtomCAS:
			// Atomics are refused outright. A global atomic makes every block
			// touch a cell other blocks may touch, defeating the disjointness
			// the certificate rests on; a shared atomic's serialisation charge
			// and returned old value depend on which lanes contend, which the
			// affine domain cannot prove identical across blocks once any
			// operand is Top. The launch simply runs under full simulation.
			return u.refusef("atomic %v: read-modify-write effects are not provably block-uniform", in.Op)

		case kernel.OpBarrier:
			// Timing of a barrier is mask-shaped only; the mask is already
			// proven block-invariant.

		case kernel.OpJump:
			u.pc = int(in.Target)
			continue

		case kernel.OpBrNZ:
			taken, err := u.uniformBranch(in.Ra)
			if err != nil {
				return err
			}
			if taken {
				u.pc = int(in.Target)
				continue
			}

		case kernel.OpIfBegin:
			jumped, err := u.ifBegin(in)
			if err != nil {
				return err
			}
			if jumped {
				continue
			}

		case kernel.OpIfEnd:
			if u.maskDepth == 0 {
				return u.refusef("if.end without matching if.begin")
			}
			u.maskDepth--
			copy(u.active, u.maskStack[u.maskDepth])
			u.nActive = 0
			for _, on := range u.active {
				if on {
					u.nActive++
				}
			}

		case kernel.OpHalt:
			return nil

		default:
			sem := in.Op.Semantics()
			if sem == nil {
				return u.refusef("unsupported opcode %v", in.Op)
			}
			if err := u.compute(in, sem); err != nil {
				return err
			}
			if u.want != 0 {
				return errRestart
			}
		}
		u.pc++
	}
}

// write stores src into the active lanes of rd. A fully active write
// replaces the column; a partial one makes rd explicit.
func (u *uniState) write(rd kernel.Reg, src *column) {
	dst := &u.regs[rd]
	if dst == src {
		return
	}
	if u.nActive == u.width {
		if !src.explicit {
			dst.v, dst.e, dst.explicit = src.v, src.e, false
			return
		}
		if dst.lanes == nil {
			dst.lanes = make([]affv, u.width)
		}
		copy(dst.lanes, src.lanes)
		dst.explicit = true
		return
	}
	u.materialize(dst)
	for l, on := range u.active {
		if on {
			dst.lanes[l] = src.lane(l)
		}
	}
}

func (u *uniState) setCol(rd kernel.Reg, c column) { u.write(rd, &c) }

// materialize turns c into explicit per-lane values.
func (u *uniState) materialize(c *column) {
	if c.explicit {
		return
	}
	if c.lanes == nil {
		c.lanes = make([]affv, u.width)
	}
	for l := range c.lanes {
		c.lanes[l] = c.lane(l)
	}
	c.explicit = true
}

// compact sets u.res from the per-lane values in u.res.lanes: one
// lane-affine column, a Top column when every lane is Top, or explicit.
func (u *uniState) compact() {
	r := &u.res
	vs := r.lanes
	v0 := vs[0]
	r.explicit = true
	if v0.top() {
		for _, v := range vs[1:] {
			if !v.top() {
				return
			}
		}
		r.v, r.e, r.explicit = v0, 0, false
		return
	}
	var e int64
	if len(vs) > 1 {
		if vs[1].top() {
			return
		}
		e = vs[1].c - v0.c
		if e != 0 && !(v0.guarded() && vs[1].guarded()) {
			return
		}
	}
	for l, v := range vs {
		if v.q != v0.q || v.r != v0.r || v.c != v0.c+e*int64(l) {
			return
		}
	}
	if e != 0 && !mag(vs[len(vs)-1].c) {
		return
	}
	r.v, r.e, r.explicit = v0, e, false
}

// colGuarded reports a non-explicit, non-Top column whose every lane is
// guarded.
func (u *uniState) colGuarded(c *column) bool {
	if c.explicit || !c.v.guarded() {
		return false
	}
	return c.e == 0 || mag(c.e) && mag(c.v.c+c.e*int64(u.width-1))
}

// compute runs a compute opcode: concrete operands evaluate through the
// opcode's kernel lane function, exactly as on the device; anything else
// goes through the affine transfer functions, a whole column at a time
// where the result is lane-affine. A divisor must be a nonzero
// block-invariant constant on every active lane.
func (u *uniState) compute(in kernel.Instr, sem *kernel.Sem) error {
	x := &u.regs[in.Ra]
	y := &column{v: affCon(in.Imm)}
	if !sem.Imm {
		y = &u.regs[in.Rb]
	}
	if sem.Trap {
		if err := u.checkDivisor(y, sem.Imm); err != nil {
			return err
		}
	}
	if !u.computeCol(in.Op, sem, x, y) {
		for l := range u.res.lanes {
			xv, yv := x.lane(l), y.lane(l)
			if xv.isCon() && yv.isCon() {
				u.res.lanes[l] = affCon(sem.Lane(xv.c, yv.c))
			} else {
				u.res.lanes[l] = u.affALU(in.Op, xv, yv)
			}
		}
		u.compact()
	}
	u.write(in.Rd, &u.res)
	return nil
}

// checkDivisor refuses unless y is a nonzero block-invariant constant on
// every active lane. Masked semantics: a zero divisor only traps on active
// lanes.
func (u *uniState) checkDivisor(y *column, imm bool) error {
	for l, on := range u.active {
		if !on {
			continue
		}
		switch dv := y.lane(l); {
		case !dv.isCon():
			return u.refusef("lane %d divisor is not a block-invariant constant", l)
		case dv.c == 0 && imm:
			return u.refusef("divides by constant zero")
		case dv.c == 0:
			return u.refusef("lane %d divides by zero", l)
		}
		if y.uniform() {
			return nil
		}
	}
	return nil
}

// computeCol sets u.res to op over whole columns when the result is a
// column the per-lane rules would also produce; it reports false when the
// lanes must be computed one by one.
func (u *uniState) computeCol(op kernel.Op, sem *kernel.Sem, x, y *column) bool {
	if x.explicit || y.explicit {
		return false
	}
	r := &u.res
	r.explicit = false
	r.e = 0
	switch {
	case x.e == 0 && y.e == 0 && x.v.isCon() && y.v.isCon():
		r.v = affCon(sem.Lane(x.v.c, y.v.c))
		return true
	case x.v.top():
		r.v = x.v
		return true
	case y.v.top():
		r.v = y.v
		return true
	case x.e == 0 && y.e == 0:
		r.v = u.affALU(op, x.v, y.v)
		return true
	}
	switch op {
	case kernel.OpAdd, kernel.OpAddI, kernel.OpSub:
		if !u.colGuarded(x) || !u.colGuarded(y) {
			return false
		}
		if op != kernel.OpSub {
			r.v = affv{x.v.q + y.v.q, x.v.r + y.v.r, x.v.c + y.v.c}
			r.e = x.e + y.e
		} else {
			r.v = affv{x.v.q - y.v.q, x.v.r - y.v.r, x.v.c - y.v.c}
			r.e = x.e - y.e
		}
	case kernel.OpMul, kernel.OpMulI, kernel.OpShl, kernel.OpShlI:
		shift := op == kernel.OpShl || op == kernel.OpShlI
		var m int64
		switch {
		case y.e == 0 && y.v.isCon() && shift:
			sh := uint(y.v.c & 63)
			if sh > 40 {
				return false
			}
			m = int64(1) << sh
		case y.e == 0 && y.v.isCon():
			m = y.v.c
		case x.e == 0 && x.v.isCon() && !shift:
			m, x = x.v.c, y
		default:
			return false
		}
		if !u.colGuarded(x) || !mag(m) {
			return false
		}
		am := abs64(m)
		if am != 0 && (abs64(x.v.q) > uniformMaxMag/am || abs64(x.v.r) > uniformMaxMag/am ||
			abs64(x.v.c) > uniformMaxMag/am || abs64(x.e) > uniformMaxMag/am) {
			return false
		}
		r.v = affv{x.v.q * m, x.v.r * m, x.v.c * m}
		r.e = x.e * m
	default:
		return false
	}
	if r.e == 0 && r.v.isCon() {
		return true
	}
	return u.colGuarded(r)
}

// affALU is a compute opcode over the affine domain on one lane, for
// operands that are not both concrete; an immediate is just a concrete
// operand.
func (u *uniState) affALU(op kernel.Op, x, y affv) affv {
	if x.top() {
		return x
	}
	if y.top() {
		return y
	}
	switch op {
	case kernel.OpAdd, kernel.OpAddI:
		if x.guarded() && y.guarded() {
			return u.gaff(x.q+y.q, x.r+y.r, x.c+y.c)
		}
	case kernel.OpSub:
		if x.guarded() && y.guarded() {
			return u.gaff(x.q-y.q, x.r-y.r, x.c-y.c)
		}
	case kernel.OpMul, kernel.OpMulI:
		if x.isCon() {
			return u.scaleAff(y, x.c)
		}
		if y.isCon() {
			return u.scaleAff(x, y.c)
		}
	case kernel.OpShl, kernel.OpShlI:
		if y.isCon() && x.guarded() {
			if sh := uint(y.c & 63); sh <= 40 {
				return u.scaleAff(x, int64(1)<<sh)
			}
		}
	case kernel.OpDiv, kernel.OpDivI, kernel.OpMod, kernel.OpModI:
		if y.isCon() {
			return u.split(op, x, y.c)
		}
	case kernel.OpSlt, kernel.OpSltI, kernel.OpSle, kernel.OpSleI,
		kernel.OpSeq, kernel.OpSeqI, kernel.OpSne, kernel.OpSneI:
		return u.affCompare(op, x, y)
	}
	return affTop(u.pc)
}

// gaff builds q·Q + r·R + c, demoting to Top when the guards fail. Zero
// strides yield an exact concrete value.
func (u *uniState) gaff(q, r, c int64) affv {
	v := affv{q, r, c}
	if v.isCon() || v.guarded() {
		return v
	}
	return affTop(u.pc)
}

// scaleAff multiplies a properly affine value by a concrete m, guarding
// against overflow of the scaled coefficients.
func (u *uniState) scaleAff(v affv, m int64) affv {
	if m == 0 {
		return affCon(0)
	}
	am := abs64(m)
	if !v.guarded() || am > uniformMaxMag ||
		abs64(v.q) > uniformMaxMag/am || abs64(v.r) > uniformMaxMag/am || abs64(v.c) > uniformMaxMag/am {
		return affTop(u.pc)
	}
	return u.gaff(v.q*m, v.r*m, v.c*m)
}

// split resolves a division or remainder of the block index by a constant
// d: by the grid's divisor it is Q or R, and by d ≥ H it is exact. The
// first other divisor asks for a restart on the grid split by d; after a
// split, a different divisor is Top.
func (u *uniState) split(op kernel.Op, x affv, d int64) affv {
	if x != u.blockID() || d <= 0 {
		return affTop(u.pc)
	}
	div := op == kernel.OpDiv || op == kernel.OpDivI
	switch {
	case d >= u.blocks && div:
		return affCon(0)
	case d >= u.blocks:
		return x
	case d == u.t && div:
		return affv{q: 1}
	case d == u.t:
		return affv{r: 1}
	case u.t == 0:
		u.want = d
	}
	return affTop(u.pc)
}

// extent returns v's least and greatest value over the grid box; v is
// guarded.
func (u *uniState) extent(v affv) (lo, hi int64) {
	lo, hi = v.c, v.c
	for _, t := range [2]int64{v.q * u.qmax, v.r * u.rmax} {
		if t < 0 {
			lo += t
		} else {
			hi += t
		}
	}
	return lo, hi
}

// truth resolves a guarded value to the same nonzero-ness at every point
// of the grid box; ok is false when it may differ. Along one varying axis
// the value is zero only at the integral root of coef·x + c; with both
// axes varying, a zero inside the range is refused.
func (u *uniState) truth(v affv) (nonzero, ok bool) {
	lo, hi := u.extent(v)
	switch {
	case lo == hi:
		return lo != 0, true
	case lo > 0 || hi < 0:
		return true, true
	}
	var coef, limit int64
	switch {
	case v.q*u.qmax == 0:
		coef, limit = v.r, u.rmax
	case v.r*u.rmax == 0:
		coef, limit = v.q, u.qmax
	default:
		return false, false
	}
	if v.c%coef != 0 {
		return true, true
	}
	if x := -v.c / coef; x < 0 || x > limit {
		return true, true
	}
	return false, false
}

// affCompare resolves a comparison whose operands may depend on the block.
// The result must be the SAME for every block, otherwise it is Top (and
// will be refused if it ever reaches control or addressing).
func (u *uniState) affCompare(op kernel.Op, x, y affv) affv {
	lane := op.Semantics().Lane
	if !x.guarded() || !y.guarded() {
		return affTop(u.pc)
	}
	d := affv{x.q - y.q, x.r - y.r, x.c - y.c} // |·| ≤ 2^41: corner evaluation safe
	if d.isCon() {
		return affCon(lane(d.c, 0))
	}
	switch op {
	case kernel.OpSlt, kernel.OpSltI, kernel.OpSle, kernel.OpSleI:
		// Monotone in the difference: identical truth at its extremes means
		// identical truth at every block.
		lo, hi := u.extent(d)
		if t := lane(lo, 0); t == lane(hi, 0) {
			return affCon(t)
		}
	case kernel.OpSeq, kernel.OpSeqI, kernel.OpSne, kernel.OpSneI:
		if nz, ok := u.truth(d); ok {
			diff := int64(0)
			if nz {
				diff = 1
			}
			return affCon(lane(diff, 0))
		}
	}
	return affTop(u.pc)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// unknown says where the Top value v came from: loaded data, or the
// instruction whose result the affine domain could not express.
func (u *uniState) unknown(v affv) string {
	pc := int(v.c)
	op := u.prog.Instrs[pc].Op
	if op == kernel.OpLdGlobal {
		return "depends on loaded data"
	}
	return fmt.Sprintf("is not affine in the block index: %v at pc %d", op, pc)
}

// laneTruth resolves a lane's condition value to a block-invariant boolean,
// or fails.
func (u *uniState) laneTruth(v affv, l int) (bool, error) {
	if v.top() {
		return false, u.refusef("lane %d condition %s", l, u.unknown(v))
	}
	if v.isCon() {
		return v.c != 0, nil
	}
	t, ok := u.truth(v)
	if !ok {
		return false, u.refusef("lane %d condition flips between blocks", l)
	}
	return t, nil
}

// condTruth resolves column ra's condition on every active lane into
// truth (when non-nil), returning whether any lane is true and whether
// all active lanes agree. A uniform column is resolved once.
func (u *uniState) condTruth(ra kernel.Reg, truth []bool) (anyTrue, allSame bool, err error) {
	c := &u.regs[ra]
	first := true
	var t0 bool
	allSame = true
	for l, on := range u.active {
		if !on {
			continue
		}
		t := t0
		if first || !c.uniform() {
			if t, err = u.laneTruth(c.lane(l), l); err != nil {
				return false, false, err
			}
		}
		if first {
			first, t0 = false, t
		}
		if truth != nil {
			truth[l] = t
		}
		anyTrue = anyTrue || t
		allSame = allSame && t == t0
	}
	return anyTrue, allSame, nil
}

// uniformBranch resolves a brnz condition: every active lane must agree and
// the shared truth must be block-invariant (the device traps on divergence).
func (u *uniState) uniformBranch(ra kernel.Reg) (bool, error) {
	if u.nActive == 0 {
		return false, u.refusef("brnz with no active lane")
	}
	taken, same, err := u.condTruth(ra, nil)
	if err != nil {
		return false, err
	}
	if !same {
		return false, u.refusef("brnz condition diverges across lanes")
	}
	return taken, nil
}

// ifBegin mirrors the device: mask off false lanes, jump past if.end when
// no lane is true. Returns whether the pc already moved.
func (u *uniState) ifBegin(in kernel.Instr) (bool, error) {
	if u.maskDepth == len(u.maskStack) {
		u.maskStack = append(u.maskStack, make([]bool, u.width))
	}
	truth := u.maskStack[u.maskDepth] // scratch until pushed below
	anyTrue, allSame, err := u.condTruth(in.Ra, truth)
	if err != nil {
		return false, err
	}
	if !anyTrue {
		u.pc = int(in.Target)
		return true, nil
	}
	if allSame {
		copy(truth, u.active)
		u.maskDepth++
		return false, nil
	}
	for l, on := range u.active {
		truth[l], u.active[l] = on, on && truth[l]
		if on && !u.active[l] {
			u.nActive--
		}
	}
	u.maskDepth++
	return false, nil
}

// execGlobal certifies one global access: every active lane's address must
// be affine and in bounds at the grid box's corners, all active lanes must
// share one stride on each grid axis, and those strides must preserve the
// coalescing pattern across blocks (multiples of the transaction width,
// or a single active lane). The lanes' address constants are recorded as
// runs for the final cross-block disjointness check.
func (u *uniState) execGlobal(in kernel.Instr) error {
	store := in.Op == kernel.OpStGlobal
	c := &u.regs[in.Ra]
	first := -1
	var q, r int64
	for l, on := range u.active {
		if !on {
			continue
		}
		if first >= 0 && !c.explicit {
			// Linear in the lane: the first and last active lanes bound
			// the rest.
			l = lastActive(u.active)
		}
		v := c.lane(l)
		if v.top() {
			return u.refusef("lane %d global address %s", l, u.unknown(v))
		}
		if !v.guarded() {
			return u.refusef("lane %d global address magnitude exceeds certifiable bounds", l)
		}
		if first < 0 {
			first, q, r = l, v.q, v.r
		} else if v.q != q || v.r != r {
			return u.refusef("lane %d global stride (%d, %d) differs from warp stride (%d, %d)", l, v.q, v.r, q, r)
		}
		if lo, hi := u.extent(v); lo < 0 || hi >= int64(u.globalWords) {
			return u.refusef("lane %d global address range [%d, %d] leaves [0,%d)", l, lo, hi, u.globalWords)
		}
		if !c.explicit && l != first {
			break
		}
	}
	if first < 0 {
		return nil
	}
	w := int64(u.width)
	if u.nActive > 1 && (q%w != 0 || r%w != 0) {
		return u.refusef("global stride (%d, %d) is not a multiple of the transaction width %d", q, r, u.width)
	}
	if q < 0 || r < 0 {
		return u.refusef("negative global stride (%d, %d)", q, r)
	}
	if err := u.recordRuns(c, q, r, store); err != nil {
		return err
	}
	if !store {
		u.setCol(in.Rd, column{v: affTop(u.pc)})
	}
	return nil
}

func lastActive(active []bool) int {
	for l := len(active) - 1; l >= 0; l-- {
		if active[l] {
			return l
		}
	}
	return -1
}

// recordRuns records the active lanes' address constants of column c as
// maximal runs of equally spaced constants.
func (u *uniState) recordRuns(c *column, q, r int64, store bool) error {
	if !c.explicit && u.nActive == u.width {
		e := c.e
		if u.width == 1 {
			e = 0
		}
		return u.record(runKey{q: q, r: r, e: e, n: u.width, store: store}, c.v.c)
	}
	var c0, e int64
	n := 0
	flush := func() error {
		if n == 0 {
			return nil
		}
		if n == 1 {
			e = 0
		}
		err := u.record(runKey{q: q, r: r, e: e, n: n, store: store}, c0)
		n = 0
		return err
	}
	for l, on := range u.active {
		if !on {
			continue
		}
		k := c.lane(l).c
		switch {
		case n == 0:
			c0, n = k, 1
		case n == 1:
			e, n = k-c0, 2
		case k == c0+e*int64(n):
			n++
		default:
			if err := flush(); err != nil {
				return err
			}
			c0, n = k, 1
		}
	}
	return flush()
}

func (u *uniState) record(k runKey, c0 int64) error {
	if u.nruns >= uniformMaxRuns {
		return u.refusef("more than %d recorded global access runs", uniformMaxRuns)
	}
	u.nruns++
	for i := len(u.fams) - 1; i >= 0; i-- {
		if f := &u.fams[i]; f.runKey == k {
			f.c0 = append(f.c0, c0)
			return nil
		}
	}
	u.fams = append(u.fams, runFamily{runKey: k, c0: []int64{c0}})
	return nil
}

// idleShared holds the abstract shared memories of finished proofs, so a
// sweep that proves a kernel per point does not allocate one each time:
// the paper's matmul tracks 3072 words, 72 KB.
var idleShared sync.Pool // of *[]affv

// releaseShared returns the proof's abstract shared memory to idleShared.
func (u *uniState) releaseShared() {
	if s := u.shared; s != nil {
		idleShared.Put(&s)
	}
}

// execShared certifies one shared access: addresses must be concrete (so
// the bank-conflict pattern is trivially block-invariant) and in bounds.
// Shared contents are tracked as affine values — stores land in ascending
// lane order exactly like the device, so later lanes win address conflicts.
func (u *uniState) execShared(in kernel.Instr) error {
	if u.shared == nil {
		n := u.prog.SharedWords
		if p, ok := idleShared.Get().(*[]affv); ok && cap(*p) >= n {
			u.shared = (*p)[:n]
			clear(u.shared)
		} else {
			u.shared = make([]affv, n)
		}
	}
	c := &u.regs[in.Ra]
	size := int64(len(u.shared))
	first := true
	for l, on := range u.active {
		if !on {
			continue
		}
		if !first && !c.explicit {
			// Linear in the lane: the first and last active lanes bound
			// the rest.
			l = lastActive(u.active)
		}
		v := c.lane(l)
		if !v.isCon() {
			return u.refusef("lane %d shared address is not a block-invariant constant", l)
		}
		if v.c < 0 || v.c >= size {
			return u.refusef("lane %d shared address %d out of [0,%d)", l, v.c, size)
		}
		if !first && !c.explicit {
			break
		}
		first = false
	}
	if in.Op == kernel.OpStShared {
		s := &u.regs[in.Rb]
		for l, on := range u.active {
			if on {
				u.shared[c.lane(l).c] = s.lane(l)
			}
		}
		return nil
	}
	if c.uniform() {
		// A broadcast: every lane reads the same word.
		u.setCol(in.Rd, column{v: u.shared[c.v.c]})
		return nil
	}
	for l := range u.res.lanes {
		if u.active[l] {
			u.res.lanes[l] = u.shared[c.lane(l).c]
		}
	}
	if u.nActive == u.width {
		u.compact()
	} else {
		u.res.explicit = true
	}
	u.write(in.Rd, &u.res)
	return nil
}

// checkDisjoint proves no block's global stores collide with another
// block's loads or stores. Every store shares one stride pair (A, B), so
// block (Q, R) writes constant k at A·Q + B·R + k, and two blocks collide
// exactly when two constants differ by A·ΔQ + B·ΔR for a nonzero
// (ΔQ, ΔR) inside the box: one lattice check against a bitmap of the store
// constants. A load whose whole-grid address range misses every store is
// read-only and needs no check.
func (u *uniState) checkDisjoint() error {
	if u.blocks == 1 {
		return nil // no other block to collide with
	}
	var d lattice
	seen := false
	for i := range u.fams {
		f := &u.fams[i]
		if !f.store || len(f.c0) == 0 {
			continue
		}
		lo, hi := f.span()
		if !seen {
			d.a, d.b, d.lo, d.hi, seen = f.q, f.r, lo, hi, true
		} else if f.q != d.a || f.r != d.b {
			return fmt.Errorf("%w: global store strides (%d, %d) and (%d, %d) differ", ErrNotUniform, d.a, d.b, f.q, f.r)
		}
		d.lo, d.hi = min(d.lo, lo), max(d.hi, hi)
	}
	if !seen {
		return nil // read-only kernels are trivially disjoint
	}
	if d.a == 0 && u.qmax > 0 || d.b == 0 && u.rmax > 0 {
		return fmt.Errorf("%w: global store at +%d does not vary along a block-grid axis: blocks share it", ErrNotUniform, d.lo)
	}
	if d.hi-d.lo >= uniformMaxSpan {
		return fmt.Errorf("%w: one block's stores span %d words, over %d", ErrNotUniform, d.hi-d.lo+1, uniformMaxSpan)
	}
	d.bits = make([]uint64, (d.hi-d.lo)/64+1)
	for _, f := range u.fams {
		for _, c := range f.c0 {
			for i := 0; f.store && i < f.n; i++ {
				k := c + f.e*int64(i) - d.lo
				d.bits[k/64] |= 1 << (k % 64)
			}
		}
	}
	gridHi := d.hi + d.a*u.qmax + d.b*u.rmax
	for i := range u.fams {
		f := &u.fams[i]
		if len(f.c0) == 0 {
			continue
		}
		var (
			x, y int64
			hit  bool
			err  error
			what string
		)
		lo, hi := f.span()
		switch {
		case f.store:
			x, y, hit, err = d.probe(f, -u.qmax, u.qmax, -u.rmax, u.rmax, true)
			what = "stores at +%d and +%d collide across blocks"
		case hi+f.q*u.qmax+f.r*u.rmax < d.lo || lo > gridHi:
			continue
		case f.q == 0 && f.r == 0:
			x, y, hit, err = d.probe(f, -u.qmax, 0, -u.rmax, 0, false)
			what = "fixed-address load at %d reads a block's store at %d"
		case f.q == d.a && f.r == d.b:
			x, y, hit, err = d.probe(f, -u.qmax, u.qmax, -u.rmax, u.rmax, true)
			what = "load at +%d reads another block's store at +%d"
		default:
			return fmt.Errorf("%w: load strides (%d, %d) differ from store strides (%d, %d)", ErrNotUniform, f.q, f.r, d.a, d.b)
		}
		if err != nil {
			return err
		}
		if hit {
			return fmt.Errorf("%w: "+what, ErrNotUniform, x, y)
		}
	}
	return nil
}

// span returns the least and greatest constant of the family's runs.
func (f *runFamily) span() (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	last := f.e * int64(f.n-1)
	for _, c := range f.c0 {
		lo, hi = min(lo, c, c+last), max(hi, c, c+last)
	}
	return lo, hi
}

// lattice is the store side of the disjointness check: the common store
// strides (a, b) and a bitmap of the store constants in [lo, hi].
type lattice struct {
	a, b, lo, hi int64
	bits         []uint64
	probes       int64
}

// probe looks for a constant x of f and an offset a·ΔQ + b·ΔR, with
// (ΔQ, ΔR) in [dq0, dq1] × [dr0, dr1] (not (0, 0) when skipZero), that
// lands on a store constant y. Only offsets that can reach [lo, hi] from
// f's span are enumerated.
func (d *lattice) probe(f *runFamily, dq0, dq1, dr0, dr1 int64, skipZero bool) (x, y int64, hit bool, err error) {
	flo, fhi := f.span()
	olo, ohi := d.lo-fhi, d.hi-flo
	if d.a > 0 {
		dq0 = max(dq0, ceilDiv(olo-d.b*dr1, d.a))
		dq1 = min(dq1, floorDiv(ohi-d.b*dr0, d.a))
	}
	count := int64(len(f.c0) * f.n)
	for dq := dq0; dq <= dq1; dq++ {
		base := d.a * dq
		r0, r1 := dr0, dr1
		if d.b > 0 {
			r0, r1 = max(r0, ceilDiv(olo-base, d.b)), min(r1, floorDiv(ohi-base, d.b))
		}
		for dr := r0; dr <= r1; dr++ {
			off := base + d.b*dr
			if skipZero && dq == 0 && dr == 0 || off < olo || off > ohi {
				continue
			}
			if d.probes += count; d.probes > uniformMaxProbes {
				return 0, 0, false, fmt.Errorf("%w: disjointness check exceeds %d probes", ErrNotUniform, uniformMaxProbes)
			}
			for _, c := range f.c0 {
				for i := 0; i < f.n; i++ {
					x := c + f.e*int64(i)
					if k := x + off - d.lo; k >= 0 && k <= d.hi-d.lo && d.bits[k/64]&(1<<(k%64)) != 0 {
						return x, x + off, true, nil
					}
				}
			}
		}
	}
	return 0, 0, false, nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 { return -floorDiv(-a, b) }
