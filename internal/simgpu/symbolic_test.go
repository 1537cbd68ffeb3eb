package simgpu

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"atgpu/internal/kernel"
)

// The symbolic register forms must be invisible: whatever execALU and
// execResolve compute on a register in symbolic form must equal, written
// out, what the column forms compute on the written-out register. These
// tests pin that for every compute opcode, the launch geometry opcodes and
// the address rule, on operands chosen where two's-complement arithmetic
// wraps.

// Register layout of the symbolic rig.
const (
	symA kernel.Reg = iota
	symB
	symD
	symRegs
)

// symBlockID and symNumBlocks are the rig's launch geometry.
const (
	symBlockID   = 2
	symNumBlocks = 5
)

// Operand forms a rig register can be set in.
const (
	formSetStale   = iota // symbolic, lanes from 2 up not written out
	formSetFlat           // written out lane by lane, no symbolic form
	formSetBoth           // symbolic and written out
	formSetSquared        // lane l holds the value plus l², written out: no lane-affine value
	formSetCount
)

// Which operand, if any, the rig's destination register is.
const (
	aliasNone = iota
	aliasA    // Rd is Ra
	aliasB    // Rd is Rb
	aliasCount
)

// symEdgeWords are the bases and steps the table combines: zero, ±1, the
// extremes, and steps that wrap within a few lanes.
var symEdgeWords = []kernel.Word{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 62}

// symOps lists every opcode execALU evaluates: the compute opcodes and
// the launch geometry.
func symOps() []kernel.Op {
	ops := []kernel.Op{kernel.OpLaneID, kernel.OpBlockID, kernel.OpNumBlocks, kernel.OpBlockDim}
	for op := kernel.Op(0); op.Valid(); op++ {
		if op.Semantics() != nil {
			ops = append(ops, op)
		}
	}
	return ops
}

// symCase is one execALU step on the rig.
type symCase struct {
	width        int
	op           kernel.Op
	a, b         kernel.Affine // Ra's and Rb's values; b is Uniform(imm) for an immediate form
	imm          kernel.Word
	formA, formB int // formSet* each
	alias        int // alias*
}

func (c symCase) String() string {
	return fmt.Sprintf("width=%d %v a=%+v b=%+v imm=%d forms=%d/%d alias=%d",
		c.width, c.op, c.a, c.b, c.imm, c.formA, c.formB, c.alias)
}

// formColumn returns the written-out column of value f set in form.
func formColumn(f kernel.Affine, form, width int) []kernel.Word {
	col := make([]kernel.Word, width)
	f.Column(col)
	if form == formSetSquared {
		for l := range col {
			col[l] += kernel.Word(l * l)
		}
	}
	return col
}

// setForm gives register r of w the value f in the given form.
func setForm(w *warp, r kernel.Reg, f kernel.Affine, form int) {
	base := int(r) * w.width
	switch form {
	case formSetFlat, formSetSquared:
		w.setColumn(r, formColumn(f, form, w.width))
	default:
		w.execSetAffine(r, base, f)
		if form == formSetBoth {
			w.execColumn(r, base)
		}
	}
}

// checkSymbolicALU steps c through execALU and compares the written-out
// destination and the trap with the reference: the geometry opcode's
// definition, or Sem.Apply on the written-out operands. It reports whether
// the result was left in symbolic form.
func checkSymbolicALU(t *testing.T, c symCase) (symbolic bool) {
	t.Helper()
	width := c.width
	ls := &launchState{width: width, numBlocks: symNumBlocks}
	w, err := newWarp(width, int(symRegs), 0)
	if err != nil {
		t.Fatal(err)
	}
	w.reset(symBlockID)
	rd := [aliasCount]kernel.Reg{symD, symA, symB}[c.alias]
	in := &kernel.DInstr{
		Op: c.op, Rd: rd, Ra: symA, Rb: symB,
		D: int32(int(rd) * width), A: int32(int(symA) * width), B: int32(int(symB) * width),
		Imm: c.imm, Sem: c.op.Semantics(),
	}
	dInit := make([]kernel.Word, width)
	for l := range dInit {
		dInit[l] = kernel.Word(-7 - l)
	}
	w.setColumn(symD, dInit)
	setForm(w, symA, c.a, c.formA)
	setForm(w, symB, c.b, c.formB)

	// The reference, on written-out columns (Apply reads the Imm field,
	// not bc, for an immediate form).
	ac, bc := formColumn(c.a, c.formA, width), formColumn(c.b, c.formB, width)
	want := append([]kernel.Word(nil), dInit...)
	switch c.alias {
	case aliasA:
		want = append(want[:0], ac...)
	case aliasB:
		want = append(want[:0], bc...)
	}
	wantTrap := -1
	switch c.op {
	case kernel.OpLaneID:
		kernel.Affine{Step: 1}.Column(want)
	case kernel.OpBlockID:
		kernel.Uniform(symBlockID).Column(want)
	case kernel.OpNumBlocks:
		kernel.Uniform(symNumBlocks).Column(want)
	case kernel.OpBlockDim:
		kernel.Uniform(kernel.Word(width)).Column(want)
	default:
		wantTrap = c.op.Semantics().Apply(want, ac, bc, c.imm, nil)
	}

	err = ls.execALU(w, in)
	if wantTrap >= 0 {
		wantErr := fmt.Sprintf("division by zero: lane %d", wantTrap)
		if err == nil || err.Error() != wantErr {
			t.Fatalf("%v: err = %v, want %q", c, err, wantErr)
		}
	} else if err != nil {
		t.Fatalf("%v: unexpected trap %v", c, err)
	}
	symbolic = w.form[rd] != formFlat
	got := w.execColumn(rd, int(in.D))
	for l := range want {
		if got[l] != want[l] {
			t.Fatalf("%v: lane %d = %d, want %d (symbolic result %v)", c, l, got[l], want[l], symbolic)
		}
	}
	if c.alias != aliasA {
		if got := w.execColumn(symA, int(in.A)); !slices.Equal(got, ac) {
			t.Fatalf("%v: Ra changed to %v, want %v", c, got, ac)
		}
	}
	if c.alias != aliasB {
		if got := w.execColumn(symB, int(in.B)); !slices.Equal(got, bc) {
			t.Fatalf("%v: Rb changed to %v, want %v", c, got, bc)
		}
	}
	return symbolic
}

// symFormPairs are the (Ra, Rb) forms TestSymbolicALU combines: each
// symbolic form beside the other and beside a written-out column, and a
// column with no lane-affine value beside a symbolic form in both orders.
var symFormPairs = [][2]int{
	{formSetStale, formSetFlat}, {formSetFlat, formSetBoth}, {formSetBoth, formSetStale},
	{formSetBoth, formSetSquared}, {formSetSquared, formSetStale},
}

// TestSymbolicALU runs every execALU opcode on uniform and affine operands
// in symbolic and written-out forms, and on columns with no lane-affine
// value, at widths 1, 7 and 32, with the destination apart from both
// operands or either one of them. The form pairs include a uniform
// symbolic operand beside such a column in both orders, the immediate
// twin's path. It checks the result against Sem.Apply on the written-out
// operands. It also checks that the symbolic path is exercised: every
// opcode gives a symbolic result on uniform operands, and the geometry
// opcodes and every opcode with a Sym rule on affine ones.
func TestSymbolicALU(t *testing.T) {
	var forms []kernel.Affine
	for _, base := range symEdgeWords {
		for _, step := range symEdgeWords {
			forms = append(forms, kernel.Affine{Base: base, Step: step})
		}
	}
	for _, op := range symOps() {
		sem := op.Semantics()
		bForms := forms
		if sem == nil || sem.Imm {
			bForms = nil
			for _, v := range symEdgeWords {
				bForms = append(bForms, kernel.Uniform(v))
			}
		}
		uniform, affine := 0, 0
		for _, width := range []int{1, 7, 32} {
			for _, a := range forms {
				for _, b := range bForms {
					for alias := 0; alias < aliasCount; alias++ {
						for _, fs := range symFormPairs {
							c := symCase{width: width, op: op, a: a, b: b, imm: b.Base, formA: fs[0], formB: fs[1], alias: alias}
							if !checkSymbolicALU(t, c) || width == 1 {
								continue
							}
							if a.Step == 0 && b.Step == 0 {
								uniform++
							} else {
								affine++
							}
						}
					}
				}
			}
		}
		if uniform == 0 {
			t.Errorf("%v: no symbolic result on uniform operands", op)
		}
		if affine == 0 && (sem == nil || sem.Sym != nil) {
			t.Errorf("%v: no symbolic result on affine operands", op)
		}
	}
}

// TestSymbolicAddress checks execResolve on an address register in
// symbolic form against execClassify on the written-out column: the same
// pattern, lane 0 address and first bad lane, on runs and broadcasts in
// range, off either end and at negative bases, and on strides the rule
// leaves to execClassify. A run or broadcast is resolved without writing
// the register out.
func TestSymbolicAddress(t *testing.T) {
	for _, width := range []int{1, 7, 32} {
		size := 4*width + 3
		wd, sz := kernel.Word(width), kernel.Word(size)
		bases := []kernel.Word{0, 1, 5, sz - wd, sz - wd + 1, sz - 1, sz, sz + 7, -1, -wd, -wd + 1,
			math.MinInt64, math.MaxInt64, math.MaxInt64 - wd + 2}
		steps := []kernel.Word{0, 1, -1, 2, wd, math.MinInt64, math.MaxInt64}
		for _, base := range bases {
			for _, step := range steps {
				f := kernel.Affine{Base: base, Step: step}
				col := make([]kernel.Word, width)
				f.Column(col)
				wantKind, wantBad := execClassify(col, size)

				w, err := newWarp(width, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				w.reset(0)
				w.execSetAffine(0, 0, f)
				kind, a0, bad := w.execResolve(&kernel.DInstr{Op: kernel.OpLdGlobal}, size)
				name := fmt.Sprintf("width=%d size=%d base=%d step=%d", width, size, base, step)
				if kind != wantKind || bad != wantBad || a0 != col[0] {
					t.Errorf("%s: resolved (kind %d, a0 %d, bad %d), execClassify (kind %d, a0 %d, bad %d)",
						name, kind, a0, bad, wantKind, col[0], wantBad)
				}
				if _, ok := execAffineKind(f, width); ok && width > 2 && w.form[0] != formStale {
					t.Errorf("%s: a run or broadcast was written out", name)
				}
				if got := w.execColumn(0, 0); fmt.Sprint(got) != fmt.Sprint(col) {
					t.Errorf("%s: address register %v after resolving, want %v", name, got, col)
				}
			}
		}
	}
}

// FuzzSymbolicALU decodes an execALU step from the fuzz input — the
// opcode, the warp width, each operand's value and form, and which operand,
// if any, the destination is — and checks it against the column forms on
// the written-out operands, as TestSymbolicALU does.
func FuzzSymbolicALU(f *testing.F) {
	ops := symOps()
	n := len(symEdgeWords)
	for i := range ops {
		for j, v := range symEdgeWords {
			bStep := symEdgeWords[(i+j+1)%n]
			if j%2 == 0 {
				bStep = 0
			}
			f.Add(uint8(i), uint8(j*6), v, symEdgeWords[(i+j)%n], symEdgeWords[(j+3)%n], bStep, uint8(i+j))
		}
	}
	f.Fuzz(func(t *testing.T, opIdx, width uint8, aBase, aStep, bBase, bStep int64, forms uint8) {
		op := ops[int(opIdx)%len(ops)]
		b := kernel.Affine{Base: bBase, Step: bStep}
		if sem := op.Semantics(); sem == nil || sem.Imm {
			b = kernel.Uniform(bBase)
		}
		checkSymbolicALU(t, symCase{
			width: 1 + int(width)%32,
			op:    op,
			a:     kernel.Affine{Base: aBase, Step: aStep},
			b:     b,
			imm:   bBase,
			formA: int(forms) % formSetCount,
			formB: int(forms/formSetCount) % formSetCount,
			alias: int(forms/(formSetCount*formSetCount)) % aliasCount,
		})
	})
}
