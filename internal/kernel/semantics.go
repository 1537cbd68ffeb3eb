package kernel

import (
	"fmt"
	"math"
)

// Sem is the executable semantics of one compute opcode: an instruction
// that only reads and writes the register file. Every reader of compute
// semantics — the simulator's interpreter and memo replay, the BlockUniform
// prover's concrete math, the pseudocode constant folder and the static
// analyzer's interval transfer — evaluates the opcode through its Sem, so
// each opcode's meaning is written once.
type Sem struct {
	// Lane is one lane's result from its Ra value a and the second
	// operand b: the lane's Rb value, or the instruction's Imm when Imm is
	// set. It is total: a zero divisor yields 0 (see Trap).
	Lane func(a, b Word) Word
	// Column is Lane over a fully active warp: d[l] = Lane(a[l], b[l]),
	// or Lane(a[l], imm) when Imm is set (b is then unused). The columns
	// have equal length; d may be a or b. Column never traps, so a Trap
	// opcode's divisors must be checked first; Apply does.
	Column func(d, a, b []Word, imm Word)
	// Imm reports that the second operand is the instruction's Imm field
	// rather than register Rb.
	Imm bool
	// Trap reports that a lane whose second operand is zero traps the
	// kernel (division and remainder).
	Trap bool
	// Sym is the opcode's rule on operands in symbolic form, or nil for
	// none: given the forms of Ra and of the second operand over a fully
	// active warp of width lanes, it returns the result's form, or false
	// when the result has none. Symbolic applies it.
	Sym func(a, b Affine, width int) (Affine, bool)
	// Twin is a register-operand opcode's immediate form (addi for add),
	// or nil: when every lane's b is v, Column(d, a, b, _) equals
	// Twin.Column(d, a, nil, v), a scalar column form.
	Twin *Sem
	// Commutes reports that Lane(a, b) == Lane(b, a), so a register
	// opcode's Twin also serves a uniform first operand.
	Commutes bool
	// Class is the opcode's abstract class: how an interval analysis
	// bounds Lane over operand intervals (see AbsClass).
	Class AbsClass
	// Checked is Lane computed over the integers, with overflow true
	// when the exact result does not fit a Word and Lane wraps. It is
	// nil for an opcode whose Lane never wraps.
	Checked func(a, b Word) (d Word, overflow bool)
}

// AbsClass names the rule by which an interval analysis bounds an
// opcode's Lane over every pair of operands drawn from two intervals.
// Every compute opcode has one; init rejects an entry without.
type AbsClass uint8

const (
	absNone AbsClass = iota
	// AbsCorner: Lane is monotone in each operand separately wherever
	// Checked reports no overflow, so over an operand box its extremes
	// lie at the four corners, and where no corner overflows nothing in
	// between does (add, sub, mul, min, max, slt, sle, their immediate
	// twins, const and mov).
	AbsCorner
	// AbsCornerA: for each fixed second operand, Lane is monotone in
	// the first, as AbsCorner along a; a second operand that is not
	// known bounds nothing (shifts, by a masked amount, and division).
	AbsCornerA
	// AbsMod: the remainder, bounded by a known positive divisor.
	AbsMod
	// AbsAnd: bitwise and, bounded by a non-negative operand.
	AbsAnd
	// AbsOrXor: bitwise or and xor, bounded by the operands' bit width
	// when both are non-negative.
	AbsOrXor
	// AbsEq: Lane depends only on whether a == b (seq, sne).
	AbsEq
)

// Affine is a register column in symbolic form: lane l holds
// Base + Step·l in the wrapping two's-complement arithmetic of every lane
// function. Step 0 is a value uniform across the warp.
type Affine struct{ Base, Step Word }

// Uniform is the symbolic form of v on every lane.
func Uniform(v Word) Affine { return Affine{Base: v} }

// Lane returns lane l's value.
func (f Affine) Lane(l int) Word { return f.Base + f.Step*Word(l) }

// Column writes f out: d[l] = f.Lane(l).
func (f Affine) Column(d []Word) {
	v := f.Base
	for l := range d {
		d[l] = v
		v += f.Step
	}
}

// Symbolic evaluates s on operands in symbolic form for a fully active
// warp of width lanes; b is the second operand's form, Uniform(Imm) when
// s.Imm. Uniform operands evaluate Lane once, and a Trap opcode with a
// uniform zero divisor traps at lane 0, as Apply would (trap true); other
// operands go to s.Sym. ok false means the result has no symbolic form.
//
// Written out, the result equals Column on the written-out operands
// exactly: two's-complement arithmetic is a ring, so the Sym rules, which
// only add, subtract and scale by a uniform factor, cannot drift from the
// lane-by-lane value, and the comparison and quotient rules answer only
// where they have proved every lane agrees.
func (s *Sem) Symbolic(a, b Affine, width int) (d Affine, trap, ok bool) {
	if a.Step == 0 && b.Step == 0 {
		if s.Trap && b.Base == 0 {
			return Affine{}, true, true
		}
		return Uniform(s.Lane(a.Base, b.Base)), false, true
	}
	if s.Sym == nil {
		return Affine{}, false, false
	}
	d, ok = s.Sym(a, b, width)
	return d, false, ok
}

// Semantics returns the semantics of a compute opcode, or nil for every
// other opcode.
func (o Op) Semantics() *Sem {
	if o >= opCount || semTable[o].Lane == nil {
		return nil
	}
	return &semTable[o]
}

// Apply executes s on the register columns d, a and b (b unused when s.Imm)
// for the lanes set in active; a nil active means every lane is active and
// runs the Column form. Inactive lanes of d are left untouched. For a Trap
// opcode Apply returns the first active lane whose divisor is zero, having
// written nothing; otherwise it returns -1.
func (s *Sem) Apply(d, a, b []Word, imm Word, active []bool) int {
	if s.Trap {
		for l := range d {
			if (active == nil || active[l]) && (s.Imm && imm == 0 || !s.Imm && b[l] == 0) {
				return l
			}
		}
	}
	if active == nil {
		s.Column(d, a, b, imm)
		return -1
	}
	for l, on := range active {
		if !on {
			continue
		}
		v := imm
		if !s.Imm {
			v = b[l]
		}
		d[l] = s.Lane(a[l], v)
	}
	return -1
}

// nonCompute lists the opcodes that are not register-only computations:
// no-op, launch geometry (read from launch state), memory, atomics,
// barriers and control flow. Their semantics live with each interpreter.
var nonCompute = []Op{
	OpNop, OpLaneID, OpBlockID, OpNumBlocks, OpBlockDim,
	OpLdGlobal, OpStGlobal, OpLdShared, OpStShared,
	OpBarrier, OpJump, OpBrNZ, OpIfBegin, OpIfEnd, OpHalt,
	OpAtomAdd, OpAtomMax, OpAtomExch, OpAtomCAS,
}

// semTable holds one entry per compute opcode. The hot opcodes spell out
// their column loop; the rest derive it from the lane function. Columns
// re-slice their inputs to len(d) so the compiler drops the per-lane
// bounds checks.
var semTable = [opCount]Sem{
	OpConst: class(AbsCorner, immSem(func(_, b Word) Word { return b }, func(d, _, _ []Word, v Word) {
		for l := range d {
			d[l] = v
		}
	})),
	OpMov: class(AbsCorner, sym(regSem(func(a, _ Word) Word { return a }, func(d, a, _ []Word, _ Word) { copy(d, a) }), symMov)),

	OpAdd: class(AbsCorner, checked(addOv, sym(commutes(regSem(add, func(d, a, b []Word, _ Word) {
		a, b = a[:len(d)], b[:len(d)]
		for l := range d {
			d[l] = a[l] + b[l]
		}
	})), symAdd))),
	OpSub: class(AbsCorner, checked(subOv, sym(regSem(func(a, b Word) Word { return a - b }, func(d, a, b []Word, _ Word) {
		a, b = a[:len(d)], b[:len(d)]
		for l := range d {
			d[l] = a[l] - b[l]
		}
	}), symSub))),
	OpMul: class(AbsCorner, checked(mulOv, sym(commutes(regSem(mul, func(d, a, b []Word, _ Word) {
		a, b = a[:len(d)], b[:len(d)]
		for l := range d {
			d[l] = a[l] * b[l]
		}
	})), symMul))),
	OpDiv: class(AbsCornerA, checked(divOv, trap(regSem(div, nil)))),
	OpMod: class(AbsMod, trap(regSem(mod, nil))),
	OpMin: class(AbsCorner, commutes(regSem(func(a, b Word) Word { return min(a, b) }, nil))),
	OpMax: class(AbsCorner, commutes(regSem(func(a, b Word) Word { return max(a, b) }, nil))),
	OpAnd: class(AbsAnd, commutes(regSem(and, nil))),
	OpOr:  class(AbsOrXor, commutes(regSem(func(a, b Word) Word { return a | b }, nil))),
	OpXor: class(AbsOrXor, commutes(regSem(func(a, b Word) Word { return a ^ b }, nil))),
	OpShl: class(AbsCornerA, checked(shlOv, regSem(shl, nil))),
	OpShr: class(AbsCornerA, regSem(shr, nil)),

	OpAddI: class(AbsCorner, checked(addOv, sym(immSem(add, func(d, a, _ []Word, v Word) {
		a = a[:len(d)]
		for l := range d {
			d[l] = a[l] + v
		}
	}), symAdd))),
	OpMulI: class(AbsCorner, checked(mulOv, sym(immSem(mul, func(d, a, _ []Word, v Word) {
		a = a[:len(d)]
		for l := range d {
			d[l] = a[l] * v
		}
	}), symMul))),
	OpDivI: class(AbsCornerA, checked(divOv, sym(trap(immSem(div, nil)), symDiv))),
	OpModI: class(AbsMod, sym(trap(immSem(mod, nil)), symMod)),
	OpShlI: class(AbsCornerA, checked(shlOv, immSem(shl, nil))),
	OpShrI: class(AbsCornerA, immSem(shr, nil)),
	OpAndI: class(AbsAnd, immSem(and, nil)),

	OpSlt:  class(AbsCorner, sym(regSem(slt, nil), symOrdered(slt))),
	OpSle:  class(AbsCorner, sym(regSem(sle, nil), symOrdered(sle))),
	OpSeq:  class(AbsEq, commutes(regSem(seq, nil))),
	OpSne:  class(AbsEq, commutes(regSem(sne, nil))),
	OpSltI: class(AbsCorner, sym(immSem(slt, nil), symOrdered(slt))),
	OpSleI: class(AbsCorner, sym(immSem(sle, nil), symOrdered(sle))),
	OpSeqI: class(AbsEq, immSem(seq, nil)),
	OpSneI: class(AbsEq, immSem(sne, nil)),
}

// The lane functions shared by a register form and its immediate form.
// Shift amounts are masked to [0,63]; Go's truncating division already
// gives MinInt64 / -1 = MinInt64 and MinInt64 % -1 = 0.
func div(a, b Word) Word {
	if b == 0 {
		return 0
	}
	return a / b
}

func mod(a, b Word) Word {
	if b == 0 {
		return 0
	}
	return a % b
}

func add(a, b Word) Word { return a + b }
func mul(a, b Word) Word { return a * b }
func and(a, b Word) Word { return a & b }
func shl(a, b Word) Word { return a << uint(b&63) }
func shr(a, b Word) Word { return a >> uint(b&63) }
func slt(a, b Word) Word { return b2w(a < b) }
func sle(a, b Word) Word { return b2w(a <= b) }
func seq(a, b Word) Word { return b2w(a == b) }
func sne(a, b Word) Word { return b2w(a != b) }

func b2w(b bool) Word {
	if b {
		return 1
	}
	return 0
}

// The checked lane functions: the exact result and whether it overflows
// a Word, where the lane function wraps.
func addOv(a, b Word) (Word, bool) {
	s := a + b
	return s, (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0)
}

func subOv(a, b Word) (Word, bool) {
	d := a - b
	return d, (b < 0 && d < a) || (b > 0 && d > a)
}

// mulOv checks MinInt64 · −1 apart: the product wraps back to MinInt64,
// and dividing it by either factor gives the other back.
func mulOv(a, b Word) (Word, bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	p := a * b
	return p, p/b != a || a == -1 && b == math.MinInt64 || b == -1 && a == math.MinInt64
}

// divOv is div over the integers: only MinInt64 / −1 = 2⁶³ overflows.
func divOv(a, b Word) (Word, bool) {
	return div(a, b), a == math.MinInt64 && b == -1
}

// shlOv is shl over the integers: a·2^s overflows when shifting back
// does not restore a.
func shlOv(a, b Word) (Word, bool) {
	d := shl(a, b)
	return d, d>>uint(b&63) != a
}

// regSem builds a register-operand entry; a nil col derives the column form
// from lane.
func regSem(lane func(a, b Word) Word, col func(d, a, b []Word, imm Word)) Sem {
	if col == nil {
		col = func(d, a, b []Word, _ Word) {
			a, b = a[:len(d)], b[:len(d)]
			for l := range d {
				d[l] = lane(a[l], b[l])
			}
		}
	}
	return Sem{Lane: lane, Column: col}
}

// immSem builds an immediate-operand entry, as regSem does.
func immSem(lane func(a, b Word) Word, col func(d, a, b []Word, imm Word)) Sem {
	if col == nil {
		col = func(d, a, _ []Word, v Word) {
			a = a[:len(d)]
			for l := range d {
				d[l] = lane(a[l], v)
			}
		}
	}
	return Sem{Lane: lane, Column: col, Imm: true}
}

func trap(s Sem) Sem {
	s.Trap = true
	return s
}

func class(c AbsClass, s Sem) Sem {
	s.Class = c
	return s
}

// checked gives an entry whose lane function can wrap its checked form.
func checked(ov func(a, b Word) (Word, bool), s Sem) Sem {
	s.Checked = ov
	return s
}

func commutes(s Sem) Sem {
	s.Commutes = true
	return s
}

// immTwins pairs each register-operand opcode that has an immediate form
// with it; init links them through Sem.Twin.
var immTwins = [...][2]Op{
	{OpAdd, OpAddI}, {OpMul, OpMulI}, {OpDiv, OpDivI}, {OpMod, OpModI},
	{OpShl, OpShlI}, {OpShr, OpShrI}, {OpAnd, OpAndI},
	{OpSlt, OpSltI}, {OpSle, OpSleI}, {OpSeq, OpSeqI}, {OpSne, OpSneI},
}

func sym(s Sem, rule func(a, b Affine, width int) (Affine, bool)) Sem {
	s.Sym = rule
	return s
}

// The symbolic rules. Moving, adding and subtracting affine columns, and
// scaling one by a uniform factor, stay affine lane for lane; the product
// of two affine columns is quadratic and has no form. Division and
// remainder by an immediate have a form where every lane's quotient is
// the same.
func symMov(a, _ Affine, _ int) (Affine, bool) { return a, true }

func symAdd(a, b Affine, _ int) (Affine, bool) {
	return Affine{a.Base + b.Base, a.Step + b.Step}, true
}

func symSub(a, b Affine, _ int) (Affine, bool) {
	return Affine{a.Base - b.Base, a.Step - b.Step}, true
}

func symMul(a, b Affine, _ int) (Affine, bool) {
	switch {
	case b.Step == 0:
		return Affine{a.Base * b.Base, a.Step * b.Base}, true
	case a.Step == 0:
		return Affine{a.Base * b.Base, a.Base * b.Step}, true
	}
	return Affine{}, false
}

// symOrdered is the rule of an ordered comparison (slt, sle). When both
// operands' end lanes compute without overflow, no lane wraps, so both
// columns and their difference are linear over the integers and the
// comparison is monotone across the lanes: if the end lanes agree, every
// lane does, and the result is uniform. Otherwise there is no form.
func symOrdered(lane func(a, b Word) Word) func(a, b Affine, width int) (Affine, bool) {
	return func(a, b Affine, width int) (Affine, bool) {
		an, ok := a.Last(width)
		if !ok {
			return Affine{}, false
		}
		bn, ok := b.Last(width)
		if !ok {
			return Affine{}, false
		}
		v := lane(a.Base, b.Base)
		if lane(an, bn) != v {
			return Affine{}, false
		}
		return Uniform(v), true
	}
}

// symDiv is divi's rule: the quotient, when every lane shares it.
func symDiv(a, b Affine, width int) (Affine, bool) {
	q, ok := sharedQuotient(a, b, width)
	return Uniform(q), ok
}

// symMod is modi's rule: when every lane shares the quotient q, lane l's
// remainder is a.Lane(l) − q·c, affine with a's step.
func symMod(a, b Affine, width int) (Affine, bool) {
	q, ok := sharedQuotient(a, b, width)
	if !ok {
		return Affine{}, false
	}
	return Affine{a.Base - q*b.Base, a.Step}, true
}

// sharedQuotient returns the quotient every lane of a has by the uniform
// divisor b, or false. The divisor must be non-zero (a zero divisor traps
// lane by lane) and a's end lanes must compute without overflow, so that a
// is monotone across the lanes; truncating division by a fixed c ≠ −1 is
// monotone in the dividend, so end lanes with one quotient give it to
// every lane. By −1 the quotient is −a except MinInt64 / −1 = MinInt64,
// which no other dividend's quotient equals, so distinct end lanes never
// share it.
func sharedQuotient(a, b Affine, width int) (Word, bool) {
	c := b.Base
	if b.Step != 0 || c == 0 {
		return 0, false
	}
	an, ok := a.Last(width)
	if !ok {
		return 0, false
	}
	q := a.Base / c
	if an/c != q {
		return 0, false
	}
	return q, true
}

// Last returns f's value on lane width−1 computed over the integers, and
// false when it does not fit a Word. When it fits, no lane wraps: f is
// monotone across the lanes, lying between Base and Last.
func (f Affine) Last(width int) (Word, bool) {
	p, of := mulOv(f.Step, Word(width-1))
	if of {
		return 0, false
	}
	v, of := addOv(f.Base, p)
	return v, !of
}

// init links the immediate twins and checks the table.
func init() {
	for _, p := range immTwins {
		semTable[p[0]].Twin = &semTable[p[1]]
	}
	if err := checkTable(&semTable); err != nil {
		panic(err)
	}
}

// checkTable checks that every opcode is either a compute opcode with a
// complete table entry, abstract class included, or on the non-compute
// list, never both.
func checkTable(t *[opCount]Sem) error {
	var listed [opCount]bool
	for _, o := range nonCompute {
		listed[o] = true
	}
	for o := Op(0); o < opCount; o++ {
		s := &t[o]
		switch {
		case listed[o] && (s.Lane != nil || s.Column != nil || s.Class != absNone):
			return fmt.Errorf("kernel: non-compute opcode %v has a semantics entry", o)
		case !listed[o] && (s.Lane == nil || s.Column == nil):
			return fmt.Errorf("kernel: opcode %v has no semantics entry and is not listed as non-compute", o)
		case !listed[o] && s.Class == absNone:
			return fmt.Errorf("kernel: compute opcode %v has no abstract class", o)
		}
	}
	return nil
}
