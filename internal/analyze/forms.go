package analyze

import (
	"math/bits"

	"atgpu/internal/kernel"
)

// Register forms. Most of what a block computes is index arithmetic and
// loop control: values the same on every lane (block ids, loop counters,
// their comparisons) or base + step·lane (lane ids, every address). So
// each register carries a form beside its column of lane intervals, the
// analyzer's counterpart of the simulator's symbolic registers. A register
// in a form is not written out into b.regs until a per-lane path reads it
// (col); a per-lane write drops the form (dst). On a fully must-active
// block compute ops, launch geometry, uniform branches and the addresses
// of memory accesses run on the forms in O(1) (or O(width) integer work
// for an access); under a partial mask a compute op whose result has a
// form writes it out to the active lanes; everything else writes the
// forms out and runs the per-lane code, which the forms must equal lane
// for lane.

// formKind is the form a register's lanes are in.
type formKind uint8

const (
	// formColumn: b.regs holds every lane's interval; there is no form.
	formColumn formKind = iota
	// formUniform: every lane holds the interval v.
	formUniform
	// formAffine: lane l holds the known value f.Lane(l), f.Step ≠ 0.
	formAffine
)

// regForm is one register's form.
type regForm struct {
	kind formKind
	// out reports that the register's column in b.regs holds the form
	// written out.
	out bool
	v   V
	f   kernel.Affine
}

// uniformForm is the form of v on every lane.
func uniformForm(v V) regForm { return regForm{kind: formUniform, v: v} }

// affineForm is the form of the known lane values f; a step of 0, or a
// one-lane warp, is uniform.
func affineForm(f kernel.Affine, width int) regForm {
	if f.Step == 0 || width == 1 {
		return uniformForm(known(f.Base))
	}
	return regForm{kind: formAffine, f: f}
}

// affine returns the form's known lane values, a known uniform value as
// step 0, or false when its lanes are not all known.
func (r regForm) affine() (kernel.Affine, bool) {
	switch {
	case r.kind == formAffine:
		return r.f, true
	case r.kind == formUniform && r.v.IsKnown():
		return kernel.Uniform(r.v.Lo), true
	}
	return kernel.Affine{}, false
}

// formCompute evaluates the compute opcode with semantics sem on operand
// forms a and b (b uniformForm(known(Imm)) for an immediate form) on every
// lane of a warp of width lanes, or returns false when the result has no
// form. Uniform operands apply the opcode's interval transfer once.
// Known lane-affine operands go through sem.Symbolic, the simulator's own
// rules: on known lanes the transfer is the opcode's wrapping Lane
// function, so the rules' exactness carries over. A divisor that may be 0
// has no form (the per-lane path reports it).
func formCompute(sem *kernel.Sem, a, b *regForm, width int) (regForm, bool) {
	if a.kind == formColumn || b.kind == formColumn {
		return regForm{}, false
	}
	if sem.Trap && (b.kind != formUniform || b.v.contains(0)) {
		return regForm{}, false
	}
	if a.kind == formUniform && b.kind == formUniform {
		return uniformForm(vTransfer(sem, a.v, b.v)), true
	}
	fa, ok := a.affine()
	if !ok {
		return regForm{}, false
	}
	fb, ok := b.affine()
	if !ok {
		return regForm{}, false
	}
	d, _, ok := sem.Symbolic(fa, fb, width) // no trap: the divisor has no 0
	if !ok {
		return regForm{}, false
	}
	return affineForm(d, width), true
}

// lane returns lane l's interval under the form (not formColumn).
func (r regForm) lane(l int) V {
	if r.kind == formAffine {
		return known(r.f.Lane(l))
	}
	return r.v
}

// col writes register r's form out into b.regs, if it is not already, and
// returns its column base. The form stays: a register read lane by lane
// once is still O(1) to compute with.
func (b *blockRun) col(r kernel.Reg) int {
	base := b.base(r)
	f := &b.forms[r]
	if f.kind != formColumn && !f.out {
		c := b.regs[base : base+b.width]
		if f.kind == formUniform {
			for l := range c {
				c[l] = f.v
			}
		} else {
			for l := range c {
				c[l] = known(f.f.Lane(l))
			}
		}
		f.out = true
	}
	return base
}

// dst prepares register r for a per-lane write and returns its column
// base: the column is written out (lanes the write skips or joins keep
// their values) and the form dropped.
func (b *blockRun) dst(r kernel.Reg) int {
	base := b.col(r)
	b.forms[r].kind = formColumn
	return base
}

// fullMask makes every lane may- and must-active.
func (b *blockRun) fullMask() {
	b.may = laneBit(b.width) - 1 // wraps to all ones at 64
	b.must = b.may
	b.recount()
}

// recount refreshes the mask summary after the masks changed.
func (b *blockRun) recount() {
	b.mayN = bits.OnesCount64(b.may)
	b.mayEnd = 64 - bits.LeadingZeros64(b.may)
	b.allMust = b.must == laneBit(b.width)-1
	b.prefix = -1
	if b.may == b.must && b.may == laneBit(b.mayN)-1 {
		b.prefix = b.mayN
	}
}

// formAddr returns the known lane-affine address of register r for an
// access to a memory of size words by the active prefix — the lanes 0..n-1
// that are may- and must-active while the rest are inactive, n = b.prefix
// (every lane on a fully must-active block) — when every active lane lies
// inside [0, size) and none wraps, so the addresses are monotone and need
// only their end lanes checked. Otherwise it returns false and the access
// takes the per-lane path, which reports what is out of range.
func (b *blockRun) formAddr(r kernel.Reg, size int) (kernel.Affine, bool) {
	if b.prefix <= 0 {
		return kernel.Affine{}, false
	}
	f, ok := b.forms[r].affine()
	if !ok {
		return kernel.Affine{}, false
	}
	last := f.Base // a broadcast needs no end-lane arithmetic
	if f.Step != 0 {
		last, ok = f.Last(b.prefix)
	}
	if !ok || min(f.Base, last) < 0 || max(f.Base, last) >= int64(size) {
		return kernel.Affine{}, false
	}
	return f, true
}

// formLanes writes the addresses f of the active prefix into b.addrs, and
// the other lanes as masked, for the per-lane load and store paths.
func (b *blockRun) formLanes(f kernel.Affine) {
	for l := range b.addrs {
		if l < b.prefix {
			b.addrs[l] = f.Lane(l)
		} else {
			b.addrs[l] = laneMasked
		}
	}
}

// formTransactions counts the distinct width-word blocks the in-range,
// monotone addresses f touch over lanes 0..n-1, as execGlobal's loop
// counts them. Consecutive lanes differ by |step|: at most width, they
// cannot skip a block, so every block between the end lanes' is touched;
// at least width, every lane is in a block of its own.
func formTransactions(f kernel.Affine, n, width int) int {
	w := int64(width)
	s := f.Step
	if s < 0 {
		s = -s
	}
	if s >= w {
		return n
	}
	last := f.Lane(n - 1)
	blocks := last/w - f.Base/w
	if blocks < 0 {
		blocks = -blocks
	}
	return int(blocks) + 1
}

// formConflict is conflictDegree for the in-range, monotone addresses f
// over lanes 0..n-1 of a width-lane warp. Lane l's bank is
// (f.Base + s·l) mod width with s = f.Step mod width: the banks repeat
// with period p = width/g, g = gcd(s, width), so lane 0's bank is the
// most hit, by ⌈n/p⌉ lanes, and the first lane to repeat a bank is p,
// repeating lane 0's — the loop's first witness pair. A step of 0 with
// broadcast reads is conflict-free.
func formConflict(f kernel.Affine, n, width int, broadcast bool) (int, []int) {
	if f.Step == 0 && broadcast {
		return 1, nil
	}
	w := int64(width)
	s := f.Step % w
	if s < 0 {
		s += w
	}
	p := int(w / gcd(s, w))
	if p >= n {
		return 1, nil
	}
	return (n + p - 1) / p, witness(0, p)
}

// gcd returns the greatest common divisor of a ≥ 0 and b > 0.
func gcd(a, b int64) int64 {
	for a != 0 {
		a, b = b%a, a
	}
	return b
}
