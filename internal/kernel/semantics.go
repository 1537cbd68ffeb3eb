package kernel

import "fmt"

// Sem is the executable semantics of one compute opcode: an instruction
// that only reads and writes the register file. Every reader of compute
// semantics — the simulator's interpreter and memo replay, the BlockUniform
// prover's concrete math and the pseudocode constant folder — evaluates
// the opcode through its Sem, so each opcode's meaning is written once.
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
	OpConst: immSem(func(_, b Word) Word { return b }, func(d, _, _ []Word, v Word) {
		for l := range d {
			d[l] = v
		}
	}),
	OpMov: regSem(func(a, _ Word) Word { return a }, func(d, a, _ []Word, _ Word) { copy(d, a) }),

	OpAdd: regSem(add, func(d, a, b []Word, _ Word) {
		a, b = a[:len(d)], b[:len(d)]
		for l := range d {
			d[l] = a[l] + b[l]
		}
	}),
	OpSub: regSem(func(a, b Word) Word { return a - b }, func(d, a, b []Word, _ Word) {
		a, b = a[:len(d)], b[:len(d)]
		for l := range d {
			d[l] = a[l] - b[l]
		}
	}),
	OpMul: regSem(mul, func(d, a, b []Word, _ Word) {
		a, b = a[:len(d)], b[:len(d)]
		for l := range d {
			d[l] = a[l] * b[l]
		}
	}),
	OpDiv: trap(regSem(div, nil)),
	OpMod: trap(regSem(mod, nil)),
	OpMin: regSem(func(a, b Word) Word { return min(a, b) }, nil),
	OpMax: regSem(func(a, b Word) Word { return max(a, b) }, nil),
	OpAnd: regSem(and, nil),
	OpOr:  regSem(func(a, b Word) Word { return a | b }, nil),
	OpXor: regSem(func(a, b Word) Word { return a ^ b }, nil),
	OpShl: regSem(shl, nil),
	OpShr: regSem(shr, nil),

	OpAddI: immSem(add, func(d, a, _ []Word, v Word) {
		a = a[:len(d)]
		for l := range d {
			d[l] = a[l] + v
		}
	}),
	OpMulI: immSem(mul, func(d, a, _ []Word, v Word) {
		a = a[:len(d)]
		for l := range d {
			d[l] = a[l] * v
		}
	}),
	OpDivI: trap(immSem(div, nil)),
	OpModI: trap(immSem(mod, nil)),
	OpShlI: immSem(shl, nil),
	OpShrI: immSem(shr, nil),
	OpAndI: immSem(and, nil),

	OpSlt:  regSem(slt, nil),
	OpSle:  regSem(sle, nil),
	OpSeq:  regSem(seq, nil),
	OpSne:  regSem(sne, nil),
	OpSltI: immSem(slt, nil),
	OpSleI: immSem(sle, nil),
	OpSeqI: immSem(seq, nil),
	OpSneI: immSem(sne, nil),
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

// init checks that every opcode is either a compute opcode with a
// complete table entry or on the non-compute list, never both.
func init() {
	var listed [opCount]bool
	for _, o := range nonCompute {
		listed[o] = true
	}
	for o := Op(0); o < opCount; o++ {
		s := &semTable[o]
		switch {
		case listed[o] && (s.Lane != nil || s.Column != nil):
			panic(fmt.Sprintf("kernel: non-compute opcode %v has a semantics entry", o))
		case !listed[o] && (s.Lane == nil || s.Column == nil):
			panic(fmt.Sprintf("kernel: opcode %v has no semantics entry and is not listed as non-compute", o))
		}
	}
}
