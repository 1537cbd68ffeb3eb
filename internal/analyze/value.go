package analyze

import (
	"math"

	"atgpu/internal/kernel"
)

// V is the abstract value of one lane's register: a closed interval
// [Lo, Hi] over kernel.Word. A value is known when Lo == Hi; top (nothing
// known) is the full int64 range. The interpreter runs mostly concretely —
// lane ids, block ids, parameters and loop counters all stay known — and
// intervals only widen where genuinely unknown data (global memory
// contents) flows into a computation.
//
// Known/known operations use the exact wrapping semantics of the
// simulator's ALU so that, on kernels whose control flow and addresses
// never depend on loaded data, the abstract execution is bit-identical to
// the simulated one. Interval/interval operations are conservative: any
// possible overflow collapses to top.
type V struct {
	Lo, Hi int64
}

var top = V{math.MinInt64, math.MaxInt64}

func known(x int64) V { return V{x, x} }

// IsKnown reports whether exactly one concrete value is possible.
func (v V) IsKnown() bool { return v.Lo == v.Hi }

func (v V) isTop() bool { return v.Lo == math.MinInt64 && v.Hi == math.MaxInt64 }

// join returns the smallest interval covering both values.
func join(a, b V) V {
	if b.Lo < a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi > a.Hi {
		a.Hi = b.Hi
	}
	return a
}

// contains reports whether x is a possible value of v.
func (v V) contains(x int64) bool { return v.Lo <= x && x <= v.Hi }

// truth classifies v as a branch condition: known-true, known-false, or
// undecidable.
type truth uint8

const (
	truthUnknown truth = iota
	truthFalse
	truthTrue
)

func (v V) truth() truth {
	if v.IsKnown() {
		if v.Lo != 0 {
			return truthTrue
		}
		return truthFalse
	}
	if !v.contains(0) {
		return truthTrue
	}
	return truthUnknown
}

// --- interval transfer -----------------------------------------------------

// absRules holds each abstract class's rule: the interval of Lane over
// every pair of operands drawn from a and b, which are not both known.
var absRules = [...]func(s *kernel.Sem, a, b V) V{
	kernel.AbsCorner:  vCorner,
	kernel.AbsCornerA: vCornerA,
	kernel.AbsMod:     vMod,
	kernel.AbsAnd:     vAnd,
	kernel.AbsOrXor:   vOrXor,
	kernel.AbsEq:      vEq,
}

// vTransfer is the interval transfer of the compute opcode whose
// semantics is s, derived from s: the result interval on the Ra interval a
// and the second operand b (the Rb interval, or known(Imm) for an
// immediate form). Known operands give Lane itself, exact and wrapping;
// others go to the rule of the opcode's abstract class, which collapses to
// top wherever Lane may wrap.
func vTransfer(s *kernel.Sem, a, b V) V {
	if a.IsKnown() && b.IsKnown() {
		return known(s.Lane(a.Lo, b.Lo))
	}
	return absRules[s.Class](s, a, b)
}

// vCorner bounds an AbsCorner lane function by its values at the four
// corners of the operand box; a corner whose exact value overflows means
// Lane wraps inside the box, and gives top.
func vCorner(s *kernel.Sem, a, b V) V {
	r := V{math.MaxInt64, math.MinInt64}
	for i := 0; i < 4; i++ {
		x, y := a.Lo, b.Lo
		if i&1 != 0 {
			x = a.Hi
		}
		if i&2 != 0 {
			y = b.Hi
		}
		var v int64
		if s.Checked == nil {
			v = s.Lane(x, y)
		} else {
			var of bool
			if v, of = s.Checked(x, y); of {
				return top
			}
		}
		r = V{min(r.Lo, v), max(r.Hi, v)}
	}
	return r
}

// vCornerA bounds an AbsCornerA lane function by its values at a's ends,
// for a known b.
func vCornerA(s *kernel.Sem, a, b V) V {
	if !b.IsKnown() {
		return top
	}
	return vCorner(s, a, b)
}

// vMod bounds the remainder by a known positive divisor m: within
// [0, m−1] for a non-negative dividend, else within ±(m−1).
func vMod(_ *kernel.Sem, a, b V) V {
	if b.IsKnown() && b.Lo > 0 {
		m := b.Lo
		if a.Lo >= 0 {
			return V{0, min(m-1, a.Hi)}
		}
		return V{-(m - 1), m - 1}
	}
	return top
}

// bitCeil returns the all-ones mask covering every bit of h (h ≥ 0).
func bitCeil(h int64) int64 {
	m := int64(0)
	for m < h {
		m = m<<1 | 1
	}
	return m
}

// vAnd: AND with a non-negative value cannot exceed it, and cannot go
// negative unless both operands are negative.
func vAnd(_ *kernel.Sem, a, b V) V {
	if b.IsKnown() && b.Lo >= 0 {
		return V{0, b.Lo}
	}
	if a.IsKnown() && a.Lo >= 0 {
		return V{0, a.Lo}
	}
	if a.Lo >= 0 && b.Lo >= 0 {
		return V{0, min(a.Hi, b.Hi)}
	}
	return top
}

// vOrXor: OR and XOR of non-negative values set no bit above the larger
// one's highest.
func vOrXor(_ *kernel.Sem, a, b V) V {
	if a.Lo >= 0 && b.Lo >= 0 {
		return V{0, bitCeil(max(a.Hi, b.Hi))}
	}
	return top
}

// vEq: disjoint operands are unequal on every pair, so Lane answers at
// any one of them.
func vEq(s *kernel.Sem, a, b V) V {
	if a.Hi < b.Lo || b.Hi < a.Lo {
		return known(s.Lane(a.Lo, b.Lo))
	}
	return V{0, 1}
}
