package analyze

import (
	"math"
	"strings"
	"testing"

	"atgpu/internal/kernel"
)

// intervalGrid is the edge grid the interval transfer is checked on: the
// points where two's-complement lane functions wrap, shifts mask, and
// MinInt64 · −1 and MinInt64 / −1 overflow.
var intervalGrid = []int64{
	0, 1, -1, 2, -2, 63, 64, 65, 1 << 31, 1 << 62, -(1 << 62),
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64,
}

// computeOps lists every opcode with kernel semantics.
func computeOps() []kernel.Op {
	var ops []kernel.Op
	for op := kernel.Op(0); op.Valid(); op++ {
		if op.Semantics() != nil {
			ops = append(ops, op)
		}
	}
	return ops
}

// gridInterval is an operand interval with the points it is checked at:
// its ends and the grid points inside it.
type gridInterval struct {
	v   V
	pts []int64
}

func gridIntervals() []gridInterval {
	var ivs []gridInterval
	for _, lo := range intervalGrid {
		for _, hi := range intervalGrid {
			if lo > hi {
				continue
			}
			iv := gridInterval{v: V{lo, hi}, pts: []int64{lo, hi}}
			for _, x := range intervalGrid {
				if lo < x && x < hi {
					iv.pts = append(iv.pts, x)
				}
			}
			ivs = append(ivs, iv)
		}
	}
	return ivs
}

// checkTransfer checks op's interval transfer on a and b: the result must
// be non-empty and hold Lane at every pair of the points xs × ys (drawn
// from a and b). It reports the first failure and returns false.
func checkTransfer(t testing.TB, op kernel.Op, a, b V, xs, ys []int64) bool {
	t.Helper()
	sem := op.Semantics()
	got := vTransfer(sem, a, b)
	if got.Lo > got.Hi {
		t.Errorf("%v %+v %+v: empty interval %+v", op, a, b, got)
		return false
	}
	for _, x := range xs {
		for _, y := range ys {
			if v := sem.Lane(x, y); !got.contains(v) {
				t.Errorf("%v %+v %+v: %+v misses Lane(%d, %d) = %d", op, a, b, got, x, y, v)
				return false
			}
		}
	}
	return true
}

// TestIntervalTransferSound runs every compute opcode, register and
// immediate forms, over every pair of intervals on the edge grid (a known
// second operand for an immediate form) and checks that the derived
// interval is non-empty and holds Lane at the ends and at every grid
// point inside. A divisor interval holding 0 is checked too: the
// interpreter reports those lanes instead, but Lane is total, so the
// transfer must still cover it.
func TestIntervalTransferSound(t *testing.T) {
	ivs := gridIntervals()
	var knowns []gridInterval
	for _, x := range intervalGrid {
		knowns = append(knowns, gridInterval{v: known(x), pts: []int64{x}})
	}
	for _, op := range computeOps() {
		bs := ivs
		if op.Semantics().Imm {
			bs = knowns
		}
	cases:
		for _, a := range ivs {
			for _, b := range bs {
				if !checkTransfer(t, op, a.v, b.v, a.pts, b.pts) {
					break cases
				}
			}
		}
	}
}

// pick maps x into v: v's own point when x falls inside, else a point of
// v chosen by x.
func pick(v V, x int64) int64 {
	span := uint64(v.Hi) - uint64(v.Lo) + 1
	if span == 0 || v.contains(x) { // span 0: the full range
		return x
	}
	return v.Lo + int64(uint64(x)%span)
}

// FuzzIntervalTransfer decodes an opcode, two operand intervals (a known
// second operand for an immediate form) and a point in each from the
// fuzz input, and checks the transfer as TestIntervalTransferSound does at
// the ends and at the points. The seeds put every grid value against the
// full range and an interval of grid values, MinInt64 · −1 among them.
func FuzzIntervalTransfer(f *testing.F) {
	ops := computeOps()
	n := len(intervalGrid)
	for i := range ops {
		for j, g := range intervalGrid {
			f.Add(uint8(i), int64(math.MinInt64), int64(math.MaxInt64), g, g, int64(0), g)
			f.Add(uint8(i), g, intervalGrid[(i+j)%n], intervalGrid[(j+3)%n], intervalGrid[(i+j+1)%n], g, int64(-1))
		}
	}
	f.Fuzz(func(t *testing.T, opIdx uint8, a0, a1, b0, b1, x, y int64) {
		op := ops[int(opIdx)%len(ops)]
		a, b := V{min(a0, a1), max(a0, a1)}, V{min(b0, b1), max(b0, b1)}
		if op.Semantics().Imm {
			b = known(b0)
		}
		checkTransfer(t, op, a, b, []int64{a.Lo, a.Hi, pick(a, x)}, []int64{b.Lo, b.Hi, pick(b, y)})
	})
}

// TestAnalyzerCoversEveryOpcode steps each opcode once through the
// analyzer's interpreter: none may fall through to "undefined opcode",
// which is kept for bytes outside the opcode space. A second step with
// lane 1 masked off must leave that lane's destination register alone.
func TestAnalyzerCoversEveryOpcode(t *testing.T) {
	const width = 4
	step := func(op kernel.Op, masked bool) (*blockRun, []Finding) {
		prog := &kernel.Program{Name: op.String(), NumRegs: 4, SharedWords: 8, Instrs: []kernel.Instr{
			{Op: op, Rd: 1, Ra: 2, Rb: 3, Imm: kernel.AtomGlobal, Target: 1},
			{Op: kernel.OpHalt},
		}}
		a := newAnalysis(prog, Options{Machine: Machine{Width: width, SharedWords: 64, GlobalWords: 64}, Blocks: 1})
		b := newBlockRun(a, 0)
		b.forms[1] = uniformForm(known(-8))
		b.forms[2] = affineForm(kernel.Affine{Base: 1, Step: 1}, width)
		b.forms[3] = affineForm(kernel.Affine{Base: 2, Step: 1}, width)
		if masked {
			b.may &^= laneBit(1)
			b.must &^= laneBit(1)
			b.recount()
		}
		b.run()
		return b, a.findings
	}
	undefined := func(fs []Finding) bool {
		for _, f := range fs {
			if strings.Contains(f.Message, "undefined opcode") {
				return true
			}
		}
		return false
	}
	for op := kernel.Op(0); op.Valid(); op++ {
		if _, fs := step(op, false); undefined(fs) {
			t.Errorf("%v: %v", op, fs)
		}
		b, _ := step(op, true)
		if got := b.regs[b.col(1)+1]; got != known(-8) {
			t.Errorf("%v wrote masked lane 1: %+v", op, got)
		}
	}
	if _, fs := step(kernel.Op(255), false); !undefined(fs) {
		t.Errorf("op(255) findings %v, want undefined opcode", fs)
	}
}

// TestZeroDivisorFindings pins the findings of a divisor that may be 0, in
// register and immediate form: a known zero on a lane that must run traps
// the launch (an error), a divisor that only may be zero, or a lane that
// only may run, draws a warning and leaves the report approximate.
func TestZeroDivisorFindings(t *testing.T) {
	cases := []struct {
		name     string
		build    func(kb *kernel.Builder, l, x, q kernel.Reg)
		severity Severity
		msg      string
	}{
		{"register-zero", func(kb *kernel.Builder, l, x, q kernel.Reg) {
			kb.Const(x, 0)
			kb.Div(q, l, kernel.R(x))
		}, SevError, "division by zero in lane 0 traps the kernel"},
		{"register-maybe-zero", func(kb *kernel.Builder, l, x, q kernel.Reg) {
			kb.LdGlobal(x, l)
			kb.Mod(q, l, kernel.R(x))
		}, SevWarning, "possible division by zero (lane 0 divisor in [-9223372036854775808, 9223372036854775807])"},
		{"constant-zero", func(kb *kernel.Builder, l, _, q kernel.Reg) {
			kb.Div(q, l, kernel.Imm(0))
		}, SevError, "division by constant zero in lane 0 traps the kernel"},
		{"constant-zero-maybe-active", func(kb *kernel.Builder, l, x, q kernel.Reg) {
			kb.LdGlobal(x, l)
			kb.IfDo(x, func() { kb.Mod(q, l, kernel.Imm(0)) })
		}, SevWarning, "possible division by constant zero (lane 0 may be active)"},
	}
	for _, c := range cases {
		kb := kernel.NewBuilder(c.name, 0)
		l, x, q := kb.Reg(), kb.Reg(), kb.Reg()
		kb.LaneID(l)
		c.build(kb, l, x, q)
		rep, err := Program(kb.MustBuild(), Options{Machine: Machine{Width: 4, GlobalWords: 64, SharedWords: 64}, Blocks: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range rep.Findings {
			if f.Analyzer == AnalyzerBounds {
				got = append(got, f.Message)
				if f.Severity != c.severity || f.Message != c.msg {
					t.Errorf("%s: %v finding %q, want %v %q", c.name, f.Severity, f.Message, c.severity, c.msg)
				}
			}
		}
		if len(got) != 1 || rep.Precise {
			t.Errorf("%s: bounds findings %q, precise %v; want one, approximate", c.name, got, rep.Precise)
		}
	}
}
