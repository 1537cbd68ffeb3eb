package kernel

import (
	"math"
	"math/rand"
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
