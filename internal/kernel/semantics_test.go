package kernel

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// computeOps returns every opcode with a semantics entry.
func computeOps() []Op {
	var ops []Op
	for o := Op(0); o < opCount; o++ {
		if o.Semantics() != nil {
			ops = append(ops, o)
		}
	}
	return ops
}

// TestEveryOpcodeClassified pins the table's init check from outside:
// each opcode is a compute entry or on the non-compute list, never both.
func TestEveryOpcodeClassified(t *testing.T) {
	listed := map[Op]bool{}
	for _, o := range nonCompute {
		if listed[o] {
			t.Errorf("%v listed twice as non-compute", o)
		}
		listed[o] = true
	}
	for o := Op(0); o < opCount; o++ {
		if s := o.Semantics(); (s != nil) == listed[o] {
			t.Errorf("%v: compute entry %v, non-compute listed %v; want exactly one", o, s != nil, listed[o])
		}
	}
	if got := len(computeOps()); got != 29 {
		t.Errorf("%d compute opcodes, want 29", got)
	}
	if opCount.Semantics() != nil || Op(255).Semantics() != nil {
		t.Error("out-of-range opcode has semantics")
	}
}

// TestCheckTableRejectsUnclassified feeds the init check copies of the
// table: a compute opcode without an abstract class, or a non-compute
// opcode with one, is rejected.
func TestCheckTableRejectsUnclassified(t *testing.T) {
	if err := checkTable(&semTable); err != nil {
		t.Fatalf("the table fails its own check: %v", err)
	}
	for _, o := range computeOps() {
		tab := semTable
		tab[o].Class = absNone
		if err := checkTable(&tab); err == nil || !strings.Contains(err.Error(), "no abstract class") {
			t.Errorf("%v without a class: %v", o, err)
		}
	}
	for _, o := range nonCompute {
		tab := semTable
		tab[o].Class = AbsCorner
		if err := checkTable(&tab); err == nil {
			t.Errorf("non-compute %v with a class passed", o)
		}
	}
}

// TestCheckedMatchesIntegers checks every checked lane function against
// the integers (math/big) on the edge words: overflow is reported exactly
// when the integer result does not fit a Word, and otherwise the result
// is Lane's.
func TestCheckedMatchesIntegers(t *testing.T) {
	exact := map[Op]func(z, a, b *big.Int, shift uint) *big.Int{
		OpAdd: func(z, a, b *big.Int, _ uint) *big.Int { return z.Add(a, b) },
		OpSub: func(z, a, b *big.Int, _ uint) *big.Int { return z.Sub(a, b) },
		OpMul: func(z, a, b *big.Int, _ uint) *big.Int { return z.Mul(a, b) },
		OpDiv: func(z, a, b *big.Int, _ uint) *big.Int {
			if b.Sign() == 0 {
				return z.SetInt64(0)
			}
			return z.Quo(a, b)
		},
		OpShl: func(z, a, _ *big.Int, shift uint) *big.Int { return z.Lsh(a, shift) },
	}
	for o, tw := range map[Op]Op{OpAdd: OpAddI, OpMul: OpMulI, OpDiv: OpDivI, OpShl: OpShlI} {
		exact[tw] = exact[o]
	}
	var z, ba, bb big.Int
	for _, o := range computeOps() {
		s := o.Semantics()
		if s.Checked == nil {
			continue
		}
		f := exact[o]
		if f == nil {
			t.Errorf("%v: checked lane function with no integer reference", o)
			continue
		}
		for _, a := range edgeWords {
			for _, b := range edgeWords {
				d, of := s.Checked(a, b)
				want := f(&z, ba.SetInt64(a), bb.SetInt64(b), uint(b&63))
				if of == want.IsInt64() || !of && d != s.Lane(a, b) {
					t.Errorf("%v(%d, %d) = %d, overflow %v; integer result %v, Lane %d", o, a, b, d, of, want, s.Lane(a, b))
				}
			}
		}
	}
}

// edgeWords are operands where int64 semantics differ between plausible
// implementations: overflow, sign, shift amounts of 64 and above or
// negative, and MinInt64 / -1.
var edgeWords = []Word{math.MinInt64, math.MinInt64 + 1, -65, -64, -1, 0, 1, 2, 63, 64, 65, math.MaxInt64}

// columns returns operand columns of width w: edge-value pairs in every
// combination (in chunks of w lanes), then random columns.
func columns(w int, rng *rand.Rand) [][2][]Word {
	var pairs [][2]Word
	for _, a := range edgeWords {
		for _, b := range edgeWords {
			pairs = append(pairs, [2]Word{a, b})
		}
	}
	for i := 0; i < 8*w; i++ {
		pairs = append(pairs, [2]Word{Word(rng.Uint64()), Word(rng.Intn(200) - 100)})
	}
	var cols [][2][]Word
	for i := 0; i < len(pairs); i += w {
		a, b := make([]Word, w), make([]Word, w)
		for l := range a {
			p := pairs[(i+l)%len(pairs)]
			a[l], b[l] = p[0], p[1]
		}
		cols = append(cols, [2][]Word{a, b})
	}
	return cols
}

// TestColumnMatchesLane checks every column form against its lane
// function, lane by lane, for register and immediate operands.
func TestColumnMatchesLane(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 7, 32} {
		cols := columns(w, rng)
		for _, o := range computeOps() {
			s := o.Semantics()
			for _, c := range cols {
				a, b := c[0], c[1]
				if s.Trap {
					b = nonzero(b) // Column runs only past the trap check
				}
				imm := b[0]
				d := make([]Word, w)
				s.Column(d, a, b, imm)
				for l := range d {
					v := b[l]
					if s.Imm {
						v = imm
					}
					if want := s.Lane(a[l], v); d[l] != want {
						t.Fatalf("%v width %d lane %d: Column(%d, %d) = %d, Lane = %d", o, w, l, a[l], v, d[l], want)
					}
				}
				// The destination may be an operand column.
				d2 := append([]Word(nil), a...)
				s.Column(d2, d2, b, imm)
				for l := range d2 {
					if d2[l] != d[l] {
						t.Fatalf("%v width %d lane %d: aliased destination = %d, want %d", o, w, l, d2[l], d[l])
					}
				}
			}
		}
	}
}

// TestImmTwins checks each register opcode's immediate twin: same trap
// rule, and the twin's column with the immediate v equals the register
// column on a b column uniform at v, aliased destination included. It
// also checks the Commutes flag against the lane function on every edge
// pair: set on a register opcode exactly when the lanes are symmetric.
func TestImmTwins(t *testing.T) {
	twins := 0
	for _, o := range computeOps() {
		s := o.Semantics()
		symmetric := true
		for _, a := range edgeWords {
			for _, b := range edgeWords {
				symmetric = symmetric && s.Lane(a, b) == s.Lane(b, a)
			}
		}
		if s.Commutes != (symmetric && !s.Imm) {
			t.Errorf("%v: Commutes = %v, lanes symmetric %v, immediate form %v", o, s.Commutes, symmetric, s.Imm)
		}
		tw := s.Twin
		if tw == nil {
			continue
		}
		twins++
		if s.Imm || !tw.Imm || s.Trap != tw.Trap {
			t.Fatalf("%v: twin flags Imm %v/%v Trap %v/%v", o, s.Imm, tw.Imm, s.Trap, tw.Trap)
		}
		for _, w := range []int{1, 7, 32} {
			a := make([]Word, w)
			for _, v := range edgeWords {
				if s.Trap && v == 0 {
					continue // Column runs only past the trap check
				}
				for i := 0; i < len(edgeWords); i += w {
					for l := range a {
						a[l] = edgeWords[(i+l)%len(edgeWords)]
					}
					b := make([]Word, w)
					for l := range b {
						b[l] = v
					}
					want, got := make([]Word, w), append([]Word(nil), a...)
					s.Column(want, a, b, 0)
					tw.Column(got, got, nil, v)
					for l := range want {
						if got[l] != want[l] {
							t.Fatalf("%v width %d lane %d: twin column (%d, #%d) = %d, want %d", o, w, l, a[l], v, got[l], want[l])
						}
					}
				}
			}
		}
	}
	if twins != 11 {
		t.Errorf("%d register opcodes have an immediate twin, want 11", twins)
	}
}

// nonzero returns b with every zero replaced by 1.
func nonzero(b []Word) []Word {
	out := append([]Word(nil), b...)
	for l, v := range out {
		if v == 0 {
			out[l] = 1
		}
	}
	return out
}

// TestApplyMaskedWritesOnlyActiveLanes checks the masked path: active
// lanes get the lane function's value, inactive lanes keep theirs.
func TestApplyMaskedWritesOnlyActiveLanes(t *testing.T) {
	const w = 7
	active := []bool{true, false, false, true, true, false, true}
	a := []Word{5, -3, math.MinInt64, 64, -1, 9, math.MaxInt64}
	b := []Word{2, 0, -1, 3, -7, 0, 65} // zeros on masked lanes only
	for _, o := range computeOps() {
		s := o.Semantics()
		imm := Word(3)
		d := make([]Word, w)
		for l := range d {
			d[l] = -999
		}
		if trap := s.Apply(d, a, b, imm, active); trap >= 0 {
			t.Fatalf("%v trapped at lane %d with zero divisors only on masked lanes", o, trap)
		}
		for l := range d {
			v := b[l]
			if s.Imm {
				v = imm
			}
			want := Word(-999)
			if active[l] {
				want = s.Lane(a[l], v)
			}
			if d[l] != want {
				t.Errorf("%v lane %d (active %v) = %d, want %d", o, l, active[l], d[l], want)
			}
		}
	}
}

// TestDivideByZeroTrap pins the trap rule for register and immediate
// div/mod: the first active lane with a zero divisor traps, before any
// lane is written; masked lanes never trap.
func TestDivideByZeroTrap(t *testing.T) {
	for _, o := range []Op{OpDiv, OpMod, OpDivI, OpModI} {
		s := o.Semantics()
		if !s.Trap {
			t.Fatalf("%v has no trap flag", o)
		}
		// The immediate forms' divisor is a zero Imm: they trap at the
		// first active lane.
		cases := []struct {
			b                []Word
			active           []bool
			wantReg, wantImm int
		}{
			{[]Word{1, 0, 2, 0, 3}, nil, 1, 0},
			{[]Word{1, 0, 2, 0, 3}, []bool{true, false, true, true, true}, 3, 0},
			{[]Word{1, 0, 2, 0, 3}, []bool{true, false, true, false, true}, -1, 0},
			{[]Word{1, 1, 1, 1, 1}, []bool{false, false, true, true, false}, -1, 2},
			{[]Word{0, 0, 0, 0, 0}, []bool{false, false, false, false, false}, -1, -1},
		}
		for i, c := range cases {
			want := c.wantReg
			if s.Imm {
				want = c.wantImm
			}
			d := []Word{7, 7, 7, 7, 7}
			a := []Word{10, 20, 30, 40, 50}
			got := s.Apply(d, a, c.b, 0, c.active)
			if got != want {
				t.Errorf("%v case %d: trap lane %d, want %d", o, i, got, want)
			}
			if got >= 0 {
				for l, v := range d {
					if v != 7 {
						t.Errorf("%v case %d: lane %d written (%d) before the trap", o, i, l, v)
					}
				}
			}
		}
		// A nonzero immediate never traps.
		if s.Imm {
			if got := s.Apply(make([]Word, 5), make([]Word, 5), nil, 2, nil); got != -1 {
				t.Errorf("%v #2 trapped at lane %d", o, got)
			}
		}
	}
}

// TestColumnsAllocateNothing pins that the interpreter's per-instruction
// path through the table allocates nothing, fully active or masked.
func TestColumnsAllocateNothing(t *testing.T) {
	const w = 32
	d, a, b := make([]Word, w), make([]Word, w), make([]Word, w)
	for l := range b {
		a[l], b[l] = Word(l*3-40), Word(l+1)
	}
	active := make([]bool, w)
	for l := range active {
		active[l] = l%3 != 0
	}
	for _, o := range computeOps() {
		s := o.Semantics()
		if n := testing.AllocsPerRun(100, func() {
			s.Column(d, a, b, 5)
			s.Apply(d, a, b, 5, nil)
			s.Apply(d, a, b, 5, active)
		}); n != 0 {
			t.Errorf("%v allocates %.0f times per run", o, n)
		}
	}
}

// TestOrderedRuleRefusesOverflow pins the end-lane check of the slt/sle
// symbolic rule: when an operand's last lane does not fit a Word, the rule
// has no answer, even where the wrapped end lanes would agree (a step of
// MinInt64 over 7 lanes wraps lane 6 back to lane 0's value while the odd
// lanes differ). Where the end lanes fit, agreeing ends give the uniform
// result and disagreeing ones no form.
func TestOrderedRuleRefusesOverflow(t *testing.T) {
	const max, min = math.MaxInt64, math.MinInt64
	refused := []struct {
		a, b  Affine
		width int
	}{
		{Affine{max, 1}, Uniform(0), 2},
		{Affine{min, -1}, Uniform(0), 2},
		{Affine{0, min}, Uniform(0), 7},
		{Affine{0, max}, Uniform(5), 7},
		{Affine{max - 5, 1}, Uniform(max), 7},
		{Affine{0, 1 << 62}, Uniform(1), 5},
		{Uniform(0), Affine{min + 30, -1}, 32},
		{Affine{-1, 1}, Affine{0, min}, 7},
	}
	accepted := []struct {
		a, b  Affine
		width int
		want  bool // the result has a form
	}{
		{Affine{max - 6, 1}, Uniform(0), 7, true},
		{Affine{min + 6, -1}, Uniform(0), 7, true},
		{Affine{0, 1}, Uniform(3), 7, false},
		{Affine{10, 1}, Affine{0, 2}, 7, true},
		{Affine{0, 1}, Affine{5, 0}, 32, false},
		{Affine{max, 1}, Uniform(0), 1, true},
	}
	for _, o := range []Op{OpSlt, OpSle, OpSltI, OpSleI} {
		s := o.Semantics()
		if s.Sym == nil {
			t.Fatalf("%v has no symbolic rule", o)
		}
		for _, c := range refused {
			if d, ok := s.Sym(c.a, c.b, c.width); ok {
				t.Errorf("%v %+v %+v width %d: rule answered %+v past an overflowing end lane", o, c.a, c.b, c.width, d)
			}
		}
		for _, c := range accepted {
			d, ok := s.Sym(c.a, c.b, c.width)
			if ok != c.want {
				t.Errorf("%v %+v %+v width %d: form %v, want %v", o, c.a, c.b, c.width, ok, c.want)
				continue
			}
			for l := 0; ok && l < c.width; l++ {
				if got, want := d.Lane(l), s.Lane(c.a.Lane(l), c.b.Lane(l)); got != want {
					t.Errorf("%v %+v %+v width %d lane %d: %d, want %d", o, c.a, c.b, c.width, l, got, want)
				}
			}
		}
	}
}
