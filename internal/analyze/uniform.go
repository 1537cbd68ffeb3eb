package analyze

import (
	"errors"
	"fmt"

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
// The abstract domain is affine-in-blockID: each lane value is either
// a·k + c (k the block index, exact over all k in [0, blocks)) or Top
// (unknown data, e.g. anything loaded from global memory). Concrete values
// (a = 0) are computed with exactly the device's Go int64 semantics,
// including wraparound, shift masking, and truncating division. Properly
// affine values (a ≠ 0) carry magnitude guards so that a·k + c never
// overflows for any certified k. Anything the domain cannot express
// precisely becomes Top, and Top is REFUSED the moment it could steer the
// trace or timing: control conditions, branch conditions, memory addresses,
// and divisors must never be Top. Refusal is always sound — the launch
// simply runs under full simulation.

// ErrNotUniform is wrapped by every refusal reason.
var ErrNotUniform = errors.New("analyze: kernel is not provably block-uniform")

const (
	// uniformMaxMag bounds |a| and |c| of properly affine values so that
	// endpoint evaluation a·k + c cannot overflow int64.
	uniformMaxMag = int64(1) << 40
	// uniformMaxBlocks bounds the certified launch size for the same reason
	// (2^40 · 2^21 + 2^40 < 2^63).
	uniformMaxBlocks = 1 << 21
	// uniformFuel caps the symbolic trace length.
	uniformFuel = 1 << 20
	// uniformMaxSites caps recorded global address functions for the
	// cross-block disjointness check.
	uniformMaxSites = 4096
)

// UniformCert records what was certified.
type UniformCert struct {
	Blocks int   // launch size the certificate covers
	Width  int   // warp width it was proved at
	Instrs int64 // warp-instructions in the per-block trace
}

// affv is a lane value affine in the block index: a·k + c, or Top.
type affv struct {
	a, c int64
	top  bool
	// src is 1 + the pc of the instruction that made a Top value, 0
	// until run stamps it; a Top operand passes its src on to the result,
	// so a refusal can name the instruction the unknown came from.
	src int32
}

func affTop() affv         { return affv{top: true} }
func affCon(v int64) affv  { return affv{c: v} }
func (v affv) isCon() bool { return !v.top && v.a == 0 }

// guarded reports whether v is safe for affine arithmetic and endpoint
// evaluation (concrete values of any magnitude are exact but only small
// ones may be combined with properly affine values).
func (v affv) guarded() bool {
	return !v.top && v.a >= -uniformMaxMag && v.a <= uniformMaxMag &&
		v.c >= -uniformMaxMag && v.c <= uniformMaxMag
}

// at evaluates v at block k. Only valid for guarded or concrete v.
func (v affv) at(k int64) int64 { return v.a*k + v.c }

// gaff builds a·k + c, demoting to Top when the guards fail. A zero stride
// yields an exact concrete value.
func gaff(a, c int64) affv {
	if a == 0 {
		return affCon(c)
	}
	v := affv{a: a, c: c}
	if !v.guarded() {
		return affTop()
	}
	return v
}

// accessRec is one active lane's address function at one dynamic global
// access.
type accessRec struct {
	a, c  int64
	store bool
}

// uniState is the symbolic machine: one representative block with symbolic
// index k.
type uniState struct {
	prog        *kernel.Program
	width       int
	blocks      int64
	globalWords int

	regs      []affv
	shared    []affv
	active    []bool
	maskStack [][]bool
	pc        int
	instrs    int64

	recs []accessRec
}

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
		regs:        make([]affv, prog.NumRegs*width),
		shared:      make([]affv, prog.SharedWords),
		active:      make([]bool, width),
	}
	for l := range u.active {
		u.active[l] = true
	}
	if err := u.run(); err != nil {
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
			u.setActive(in.Rd, func(int) affv { return affCon(in.Imm) })

		case kernel.OpMov:
			a := u.base(in.Ra)
			u.setActive(in.Rd, func(l int) affv { return u.regs[a+l] })

		case kernel.OpLaneID:
			u.setActive(in.Rd, func(l int) affv { return affCon(int64(l)) })

		case kernel.OpBlockID:
			u.setActive(in.Rd, func(int) affv { return affv{a: 1, c: 0} })

		case kernel.OpNumBlocks:
			u.setActive(in.Rd, func(int) affv { return affCon(u.blocks) })

		case kernel.OpBlockDim:
			u.setActive(in.Rd, func(int) affv { return affCon(int64(u.width)) })

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
			if len(u.maskStack) == 0 {
				return u.refusef("if.end without matching if.begin")
			}
			u.active = u.maskStack[len(u.maskStack)-1]
			u.maskStack = u.maskStack[:len(u.maskStack)-1]

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
		}
		u.pc++
	}
}

// compute runs a compute opcode: concrete operands evaluate through the
// opcode's kernel lane function, exactly as on the device; anything else
// goes through the affine transfer functions. A divisor must be a nonzero
// block-invariant constant on every active lane.
func (u *uniState) compute(in kernel.Instr, sem *kernel.Sem) error {
	a, b := u.base(in.Ra), u.base(in.Rb)
	operand := func(l int) affv {
		if sem.Imm {
			return affCon(in.Imm)
		}
		return u.regs[b+l]
	}
	if sem.Trap {
		// Masked semantics: a zero divisor only traps on active lanes.
		for l := 0; l < u.width; l++ {
			if !u.active[l] {
				continue
			}
			switch dv := operand(l); {
			case !dv.isCon():
				return u.refusef("lane %d divisor is not a block-invariant constant", l)
			case dv.c == 0 && sem.Imm:
				return u.refusef("divides by constant zero")
			case dv.c == 0:
				return u.refusef("lane %d divides by zero", l)
			}
		}
	}
	op := in.Op
	if sem.Imm {
		op = regForm[op]
	}
	u.setActive(in.Rd, func(l int) affv {
		x, y := u.regs[a+l], operand(l)
		if x.isCon() && y.isCon() {
			return affCon(sem.Lane(x.c, y.c))
		}
		return u.affALU(op, x, y)
	})
	return nil
}

func (u *uniState) base(r kernel.Reg) int { return int(r) * u.width }

// setActive writes f(l) into active lanes of destination register rd,
// stamping a new Top with the current pc.
func (u *uniState) setActive(rd kernel.Reg, f func(l int) affv) {
	d := u.base(rd)
	for l := 0; l < u.width; l++ {
		if u.active[l] {
			v := f(l)
			if v.top && v.src == 0 {
				v.src = int32(u.pc) + 1
			}
			u.regs[d+l] = v
		}
	}
}

// affALU is a register-operand compute opcode over the affine domain, for
// operands that are not both concrete; immediate forms arrive mapped by
// regForm.
func (u *uniState) affALU(op kernel.Op, x, y affv) affv {
	if x.top {
		return x
	}
	if y.top {
		return y
	}
	switch op {
	case kernel.OpAdd:
		if x.guarded() && y.guarded() {
			return gaff(x.a+y.a, x.c+y.c)
		}
	case kernel.OpSub:
		if x.guarded() && y.guarded() {
			return gaff(x.a-y.a, x.c-y.c)
		}
	case kernel.OpMul:
		if m, ok := conOf(x, y); ok {
			v, _ := pickAffine(x, y)
			return scaleAff(v, m)
		}
	case kernel.OpShl:
		if y.isCon() && x.guarded() {
			return shiftAff(x, y.c)
		}
	case kernel.OpSlt, kernel.OpSle, kernel.OpSeq, kernel.OpSne:
		return u.affCompare(op, x, y)
	}
	return affTop()
}

// regForm maps each immediate-operand compute opcode to its register form:
// over the affine domain an immediate is just a concrete operand.
var regForm = map[kernel.Op]kernel.Op{
	kernel.OpAddI: kernel.OpAdd, kernel.OpMulI: kernel.OpMul,
	kernel.OpDivI: kernel.OpDiv, kernel.OpModI: kernel.OpMod,
	kernel.OpShlI: kernel.OpShl, kernel.OpShrI: kernel.OpShr, kernel.OpAndI: kernel.OpAnd,
	kernel.OpSltI: kernel.OpSlt, kernel.OpSleI: kernel.OpSle,
	kernel.OpSeqI: kernel.OpSeq, kernel.OpSneI: kernel.OpSne,
}

// conOf extracts the concrete multiplier when exactly one operand is
// concrete.
func conOf(x, y affv) (int64, bool) {
	if x.isCon() {
		return x.c, true
	}
	if y.isCon() {
		return y.c, true
	}
	return 0, false
}

func pickAffine(x, y affv) (affv, bool) {
	if !x.isCon() {
		return x, true
	}
	return y, true
}

// scaleAff multiplies a properly affine value by a concrete m, guarding
// against overflow of the scaled coefficients.
func scaleAff(v affv, m int64) affv {
	if v.top {
		return affTop()
	}
	if m == 0 {
		return affCon(0)
	}
	if !v.guarded() {
		return affTop()
	}
	am := abs64(m)
	if am > uniformMaxMag ||
		abs64(v.a) > uniformMaxMag/am || abs64(v.c) > uniformMaxMag/am {
		return affTop()
	}
	return gaff(v.a*m, v.c*m)
}

// shiftAff is left shift of an affine value: multiplication by 2^s when the
// device's masked shift amount is small enough to guard.
func shiftAff(v affv, s int64) affv {
	sh := uint(s & 63)
	if sh > 40 {
		return affTop()
	}
	return scaleAff(v, int64(1)<<sh)
}

// affCompare resolves a comparison whose operands may depend on k. The
// result must be the SAME for every block, otherwise it is Top (and will be
// refused if it ever reaches control or addressing).
func (u *uniState) affCompare(op kernel.Op, x, y affv) affv {
	lane := op.Semantics().Lane
	if !x.guarded() || !y.guarded() {
		return affTop()
	}
	da, dc := x.a-y.a, x.c-y.c // diff(k) = da·k + dc, |·| ≤ 2^41: evaluation safe
	if da == 0 {
		return affCon(lane(dc, 0))
	}
	last := u.blocks - 1
	switch op {
	case kernel.OpSlt, kernel.OpSle:
		// diff is monotone in k: identical truth at both endpoints means
		// identical truth at every block.
		t0 := lane(da*0+dc, 0)
		t1 := lane(da*last+dc, 0)
		if t0 == t1 {
			return affCon(t0)
		}
	case kernel.OpSeq, kernel.OpSne:
		// diff(k) = 0 only at the single root k0 = -dc/da (if integral).
		rootIn := dc%da == 0 && -dc/da >= 0 && -dc/da <= last
		if !rootIn {
			if op == kernel.OpSeq {
				return affCon(0)
			}
			return affCon(1)
		}
		if u.blocks == 1 {
			// The root is the only block; the comparison is still uniform.
			if op == kernel.OpSeq {
				return affCon(1)
			}
			return affCon(0)
		}
	}
	return affTop()
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
	pc := int(v.src) - 1
	op := u.prog.Instrs[pc].Op
	if op == kernel.OpLdGlobal {
		return "depends on loaded data"
	}
	return fmt.Sprintf("is not affine in the block index: %v at pc %d", op, pc)
}

// laneTruth resolves a lane's condition value to a block-invariant boolean,
// or fails.
func (u *uniState) laneTruth(v affv, l int) (bool, error) {
	if v.top {
		return false, u.refusef("lane %d condition %s", l, u.unknown(v))
	}
	if v.isCon() {
		return v.c != 0, nil
	}
	// Properly affine: nonzero except at the single root of a·k + c.
	if v.c%v.a == 0 {
		if k0 := -v.c / v.a; k0 >= 0 && k0 < u.blocks && u.blocks > 1 {
			return false, u.refusef("lane %d condition flips at block %d", l, k0)
		}
	}
	// No root among certified blocks (or a single-block launch): always
	// nonzero, i.e. true — unless the only block IS the root.
	if u.blocks == 1 && v.c == 0 {
		return false, nil
	}
	return true, nil
}

// uniformBranch resolves a brnz condition: every active lane must agree and
// the shared truth must be block-invariant (the device traps on divergence).
func (u *uniState) uniformBranch(ra kernel.Reg) (bool, error) {
	a := u.base(ra)
	taken, seen := false, false
	for l := 0; l < u.width; l++ {
		if !u.active[l] {
			continue
		}
		t, err := u.laneTruth(u.regs[a+l], l)
		if err != nil {
			return false, err
		}
		if !seen {
			taken, seen = t, true
		} else if t != taken {
			return false, u.refusef("brnz condition diverges across lanes")
		}
	}
	if !seen {
		return false, u.refusef("brnz with no active lane")
	}
	return taken, nil
}

// ifBegin mirrors the device: mask off false lanes, jump past if.end when
// no lane is true. Returns whether the pc already moved.
func (u *uniState) ifBegin(in kernel.Instr) (bool, error) {
	a := u.base(in.Ra)
	truth := make([]bool, u.width)
	anyTrue := false
	for l := 0; l < u.width; l++ {
		if !u.active[l] {
			continue
		}
		t, err := u.laneTruth(u.regs[a+l], l)
		if err != nil {
			return false, err
		}
		truth[l] = t
		anyTrue = anyTrue || t
	}
	if !anyTrue {
		u.pc = int(in.Target)
		return true, nil
	}
	saved := make([]bool, u.width)
	copy(saved, u.active)
	u.maskStack = append(u.maskStack, saved)
	for l := 0; l < u.width; l++ {
		if u.active[l] && !truth[l] {
			u.active[l] = false
		}
	}
	return false, nil
}

// execGlobal certifies one global access: every active lane's address must
// be affine and in bounds at both block endpoints, all active lanes must
// share one stride, and that stride must preserve the coalescing pattern
// across blocks (a multiple of the transaction width, or zero, or a single
// active lane). The per-lane address functions are recorded for the final
// cross-block disjointness check.
func (u *uniState) execGlobal(in kernel.Instr) error {
	a := u.base(in.Ra)
	store := in.Op == kernel.OpStGlobal
	stride := int64(0)
	nActive := 0
	strideSet := false
	for l := 0; l < u.width; l++ {
		if !u.active[l] {
			continue
		}
		v := u.regs[a+l]
		if v.top {
			return u.refusef("lane %d global address %s", l, u.unknown(v))
		}
		if !v.guarded() {
			return u.refusef("lane %d global address magnitude exceeds certifiable bounds", l)
		}
		if lo := v.at(0); lo < 0 || lo >= int64(u.globalWords) {
			return u.refusef("lane %d global address %d out of [0,%d) at block 0", l, lo, u.globalWords)
		}
		if hi := v.at(u.blocks - 1); hi < 0 || hi >= int64(u.globalWords) {
			return u.refusef("lane %d global address %d out of [0,%d) at block %d", l, hi, u.globalWords, u.blocks-1)
		}
		if !strideSet {
			stride, strideSet = v.a, true
		} else if v.a != stride {
			return u.refusef("lane %d global stride %d differs from warp stride %d", l, v.a, stride)
		}
		nActive++
	}
	if nActive > 1 && stride != 0 && stride%int64(u.width) != 0 {
		return u.refusef("global stride %d is not a multiple of the transaction width %d", stride, u.width)
	}
	if stride < 0 {
		return u.refusef("negative global stride %d", stride)
	}
	for l := 0; l < u.width; l++ {
		if !u.active[l] {
			continue
		}
		if len(u.recs) >= uniformMaxSites {
			return u.refusef("more than %d recorded global address functions", uniformMaxSites)
		}
		v := u.regs[a+l]
		u.recs = append(u.recs, accessRec{a: v.a, c: v.c, store: store})
	}
	if !store {
		u.setActive(in.Rd, func(int) affv { return affTop() })
	}
	return nil
}

// execShared certifies one shared access: addresses must be concrete (so
// the bank-conflict pattern is trivially block-invariant) and in bounds.
// Shared contents are tracked as affine values — stores land in ascending
// lane order exactly like the device, so later lanes win address conflicts.
func (u *uniState) execShared(in kernel.Instr) error {
	a := u.base(in.Ra)
	size := int64(len(u.shared))
	for l := 0; l < u.width; l++ {
		if !u.active[l] {
			continue
		}
		v := u.regs[a+l]
		if !v.isCon() {
			return u.refusef("lane %d shared address is not a block-invariant constant", l)
		}
		if v.c < 0 || v.c >= size {
			return u.refusef("lane %d shared address %d out of [0,%d)", l, v.c, size)
		}
	}
	if in.Op == kernel.OpStShared {
		s := u.base(in.Rb)
		for l := 0; l < u.width; l++ {
			if u.active[l] {
				u.shared[u.regs[a+l].c] = u.regs[s+l]
			}
		}
		return nil
	}
	d := u.base(in.Rd)
	for l := 0; l < u.width; l++ {
		if u.active[l] {
			u.regs[d+l] = u.shared[u.regs[a+l].c]
		}
	}
	return nil
}

// checkDisjoint proves no block's global stores collide with another
// block's loads or stores. With per-lane address functions a·k + c and all
// nonzero strides equal to one s, block k's address and block k”s address
// coincide exactly when the constants differ by s·(k−k'); the check reduces
// to divisibility of constant differences.
func (u *uniState) checkDisjoint() error {
	var stores, loads []accessRec
	for _, r := range u.recs {
		if r.store {
			stores = append(stores, r)
		} else {
			loads = append(loads, r)
		}
	}
	if len(stores) == 0 {
		return nil // read-only kernels are trivially disjoint
	}
	s := int64(0)
	for _, r := range u.recs {
		if r.a == 0 {
			continue
		}
		if s == 0 {
			s = r.a
		} else if r.a != s {
			return fmt.Errorf("%w: global strides %d and %d differ", ErrNotUniform, s, r.a)
		}
	}
	if u.blocks > 1 {
		for _, r := range stores {
			if r.a == 0 {
				return fmt.Errorf("%w: stride-0 global store at address %d is written by every block", ErrNotUniform, r.c)
			}
		}
	}
	if s == 0 {
		return nil // single block with constant addresses
	}
	h := u.blocks
	// store vs store: blocks k ≠ k' collide iff (c2−c1)/s = k−k' with
	// 1 ≤ |k−k'| ≤ H−1.
	for i := range stores {
		for j := i + 1; j < len(stores); j++ {
			d := stores[j].c - stores[i].c
			if d%s == 0 {
				if q := abs64(d / s); q >= 1 && q <= h-1 {
					return fmt.Errorf("%w: stores at +%d and +%d collide across blocks (offset %d strides)",
						ErrNotUniform, stores[i].c, stores[j].c, q)
				}
			}
		}
	}
	for _, ld := range loads {
		for _, st := range stores {
			d := ld.c - st.c
			if d%s != 0 {
				continue
			}
			q := d / s
			if ld.a == 0 {
				// Every block loads the fixed address; any block storing it
				// races the others.
				if q >= 0 && q <= h-1 {
					return fmt.Errorf("%w: fixed-address load at %d reads block %d's store", ErrNotUniform, ld.c, q)
				}
				continue
			}
			// Strided load of block k hits block k−q's store.
			if aq := abs64(q); aq >= 1 && aq <= h-1 {
				return fmt.Errorf("%w: load at +%d reads another block's store at +%d", ErrNotUniform, ld.c, st.c)
			}
		}
	}
	return nil
}
