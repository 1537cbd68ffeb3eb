package simgpu

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"atgpu/internal/kernel"
)

// The symbolic register forms must be invisible: whatever execALU and
// execAccess compute on a register in symbolic form must equal, written
// out, what the column forms compute on the written-out register, on a
// scheduled warp and on a replay batch alike. These tests pin that for
// every compute opcode, the launch geometry opcodes and the address rule,
// on operands chosen where two's-complement arithmetic wraps.

// Register layout of the symbolic rig.
const (
	symA kernel.Reg = iota
	symB
	symD
	symRegs
)

// symBlockID and symNumBlocks are the rig's launch geometry: the batch's
// first block and the launch size.
const (
	symBlockID   = 2
	symNumBlocks = 5
)

// Operand forms a rig register can be set in.
const (
	formSetStale   = iota // symbolic, lanes past the anchors not written out
	formSetFlat           // written out lane by lane, no symbolic form
	formSetBoth           // symbolic and written out
	formSetSquared        // lane l of block b holds the value plus l² + b², written out: no symbolic value
	formSetRows           // every lane of block b holds the value's lane 0 there, as a broadcast load leaves it (formRows)
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

// symCase is one execALU step on the rig: a warp of blocks blocks of
// width lanes, 1 block being a scheduled warp.
type symCase struct {
	width, blocks int
	op            kernel.Op
	a, b          batchAffine // Ra's and Rb's values; b is Uniform(imm) for an immediate form
	imm           kernel.Word
	formA, formB  int // formSet* each
	alias         int // alias*
}

func (c symCase) String() string {
	return fmt.Sprintf("width=%d blocks=%d %v a=%+v b=%+v imm=%d forms=%d/%d alias=%d",
		c.width, c.blocks, c.op, c.a, c.b, c.imm, c.formA, c.formB, c.alias)
}

// formColumn returns the written-out column of value f set in form on
// blocks blocks of width lanes.
func formColumn(f batchAffine, form, width, blocks int) []kernel.Word {
	col := make([]kernel.Word, width*blocks)
	for b := 0; b < blocks; b++ {
		row := col[b*width : (b+1)*width]
		f.row(b).Column(row)
		if form == formSetRows {
			row := f.row(b)
			row.Step = 0
			row.Column(col[b*width : (b+1)*width])
		}
		if form == formSetSquared {
			for l := range row {
				row[l] += kernel.Word(l*l + b*b)
			}
		}
	}
	return col
}

// newSymWarp returns a warp of regs registers and shared shared words per
// block, shaped for slab blocks and running blocks of them from block
// first, and the column base of register r.
func newSymWarp(width, slab, blocks, regs, shared, first int) (*warp, func(r kernel.Reg) int32) {
	w := newWarp(warpShape{width, slab, regs, shared})
	w.addrs = make([]int, width*slab)
	w.reset(first, blocks)
	return w, func(r kernel.Reg) int32 { return int32(int(r) * w.stride()) }
}

// setForm gives register r of w the value f in the given form.
func setForm(w *warp, r kernel.Reg, f batchAffine, form int) {
	base := int(r) * w.stride()
	switch form {
	case formSetFlat, formSetSquared:
		w.setColumn(r, formColumn(f, form, w.width, w.blocks))
	case formSetRows:
		for b := 0; b < w.blocks; b++ {
			w.regs[base+b*w.width] = f.row(b).Base
		}
		w.form[r] = formRows
	default:
		w.execSetForm(r, base, f)
		if form == formSetBoth {
			w.execColumn(r, base)
		}
	}
}

// checkSymbolicALU steps c through execALU and compares the written-out
// destination, the trap and its block with the reference: the geometry
// opcode's definition, or Sem.Apply on the written-out operands. It
// reports whether the result was left in symbolic form.
func checkSymbolicALU(t *testing.T, c symCase) (symbolic bool) {
	t.Helper()
	width, blocks := c.width, c.blocks
	lanes := width * blocks
	ls := &launchState{width: width, numBlocks: symNumBlocks}
	w, base := newSymWarp(width, blocks, blocks, int(symRegs), 0, symBlockID)
	rd := [aliasCount]kernel.Reg{symD, symA, symB}[c.alias]
	in := &kernel.DInstr{
		Op: c.op, Rd: rd, Ra: symA, Rb: symB,
		D: base(rd), A: base(symA), B: base(symB),
		Imm: c.imm, Sem: c.op.Semantics(),
	}
	dInit := make([]kernel.Word, lanes)
	for l := range dInit {
		dInit[l] = kernel.Word(-7 - l)
	}
	w.setColumn(symD, dInit)
	setForm(w, symA, c.a, c.formA)
	setForm(w, symB, c.b, c.formB)

	// The reference, on written-out columns (Apply reads the Imm field,
	// not bc, for an immediate form).
	ac, bc := formColumn(c.a, c.formA, width, blocks), formColumn(c.b, c.formB, width, blocks)
	want := append([]kernel.Word(nil), dInit...)
	switch c.alias {
	case aliasA:
		want = append(want[:0], ac...)
	case aliasB:
		want = append(want[:0], bc...)
	}
	wantTrap := -1
	var geometry batchAffine
	switch c.op {
	case kernel.OpLaneID:
		geometry = batchAffine{Affine: kernel.Affine{Step: 1}}
	case kernel.OpBlockID:
		geometry = batchAffine{Affine: kernel.Uniform(symBlockID), BStep: 1}
	case kernel.OpNumBlocks:
		geometry = batchAffine{Affine: kernel.Uniform(symNumBlocks)}
	case kernel.OpBlockDim:
		geometry = batchAffine{Affine: kernel.Uniform(kernel.Word(width))}
	default:
		wantTrap = c.op.Semantics().Apply(want, ac, bc, c.imm, nil)
	}
	if c.op.Semantics() == nil {
		want = formColumn(geometry, formSetFlat, width, blocks)
	}

	err := ls.execALU(w, in)
	if wantTrap >= 0 {
		wantErr := fmt.Sprintf("division by zero: lane %d", wantTrap%width)
		if err == nil || err.Error() != wantErr || w.trapBlock != wantTrap/width {
			t.Fatalf("%v: err = %v in block %d, want %q in block %d", c, err, w.trapBlock, wantErr, wantTrap/width)
		}
	} else if err != nil {
		t.Fatalf("%v: unexpected trap %v", c, err)
	}
	symbolic = w.form[rd] != formFlat
	got := w.execColumn(rd, int(in.D))
	for l := range want {
		if got[l] != want[l] {
			t.Fatalf("%v: block %d lane %d = %d, want %d (symbolic result %v)", c, l/width, l%width, got[l], want[l], symbolic)
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
// symbolic form beside the other and beside a written-out column, a
// column with no lane-affine value beside a symbolic form in both orders,
// and a register with one value per block (formRows, a twin's operand)
// beside a column in both orders.
var symFormPairs = [][2]int{
	{formSetStale, formSetFlat}, {formSetFlat, formSetBoth}, {formSetBoth, formSetStale},
	{formSetBoth, formSetSquared}, {formSetSquared, formSetStale},
	{formSetRows, formSetSquared}, {formSetFlat, formSetRows},
}

// TestSymbolicALU runs every execALU opcode on uniform and affine operands
// in symbolic and written-out forms, and on columns with no lane-affine
// value, at widths 1, 7 and 32, with the destination apart from both
// operands or either one of them. The form pairs include a uniform
// symbolic operand beside such a column in both orders, the immediate
// twin's path. It checks the result against Sem.Apply on the written-out
// operands. It also checks that the symbolic path is exercised: every
// opcode gives a symbolic result on uniform operands, and the geometry
// opcodes and every opcode with a Sym rule on affine ones. The block axis
// runs the same checks on batches of 1, 3, 8 and memoBatchMax blocks with
// operands that step along the blocks (checkSymbolicBatches), and the
// quotient rules run
// on the divisors and dividends where they are easiest to get wrong
// (checkSymbolicQuotient).
func TestSymbolicALU(t *testing.T) {
	var forms []batchAffine
	for _, base := range symEdgeWords {
		for _, step := range symEdgeWords {
			forms = append(forms, batchAffine{Affine: kernel.Affine{Base: base, Step: step}})
		}
	}
	for _, op := range symOps() {
		sem := op.Semantics()
		bForms := forms
		if sem == nil || sem.Imm {
			bForms = nil
			for _, v := range symEdgeWords {
				bForms = append(bForms, batchAffine{Affine: kernel.Uniform(v)})
			}
		}
		uniform, affine := 0, 0
		for _, width := range []int{1, 7, 32} {
			for _, a := range forms {
				for _, b := range bForms {
					for alias := 0; alias < aliasCount; alias++ {
						for _, fs := range symFormPairs {
							c := symCase{width: width, blocks: 1, op: op, a: a, b: b, imm: b.Base, formA: fs[0], formB: fs[1], alias: alias}
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
	checkSymbolicBatches(t)
	checkSymbolicQuotient(t)
}

// checkSymbolicBatches steps every execALU opcode on batches: widths 1, 7
// and 32 by 1, 3, 8 and memoBatchMax blocks, on random operands whose
// bases and steps along both axes come from symEdgeWords and small words
// (a third of them affine in the column index), in random forms and
// aliasing. It requires, on batches of several blocks, a symbolic result
// on operands that step along the blocks from every geometry opcode and
// every opcode with a Sym rule.
func checkSymbolicBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	words := append([]kernel.Word{2, 3, 7, 32, -2, -5}, symEdgeWords...)
	word := func() kernel.Word {
		if rng.Intn(3) == 0 {
			return 0
		}
		return words[rng.Intn(len(words))]
	}
	for _, op := range symOps() {
		sem := op.Semantics()
		blockAxis := 0
		for _, width := range []int{1, 7, 32} {
			for _, blocks := range []int{1, 3, 8, memoBatchMax} {
				// Every third operand is affine in the column index
				// b·width + l, as blockid·blockdim + laneid is.
				operand := func() batchAffine {
					f := batchAffine{Affine: kernel.Affine{Base: word(), Step: word()}, BStep: word()}
					if rng.Intn(3) == 0 {
						f.BStep = f.Step * kernel.Word(width)
					}
					return f
				}
				for i := 0; i < 300; i++ {
					a, b := operand(), operand()
					if sem == nil || sem.Imm {
						b = batchAffine{Affine: kernel.Uniform(b.Base)}
					}
					c := symCase{width: width, blocks: blocks, op: op, a: a, b: b, imm: b.Base,
						formA: rng.Intn(formSetCount), formB: rng.Intn(formSetCount), alias: rng.Intn(aliasCount)}
					if checkSymbolicALU(t, c) && blocks > 1 && (a.BStep != 0 || b.BStep != 0 || op == kernel.OpBlockID) {
						blockAxis++
					}
				}
			}
		}
		if blockAxis == 0 && (sem == nil || sem.Sym != nil) {
			t.Errorf("%v: no symbolic result on operands stepping along the blocks", op)
		}
	}
}

// checkSymbolicQuotient pins the divi and modi rules on the cases where a
// quotient rule is easiest to get wrong: a quotient boundary inside the
// warp or the batch (no form, but the right lanes), negative divisors and
// dividends (truncation toward zero), MinInt64 / −1 (wraps to MinInt64),
// a dividend whose end lanes overflow, and a zero divisor (a trap at lane
// 0, or at the first active lane of a block that varies).
func checkSymbolicQuotient(t *testing.T) {
	const min, max = math.MinInt64, math.MaxInt64
	type qcase struct {
		a    batchAffine
		imm  kernel.Word
		form bool // a symbolic result is expected
	}
	lane := func(base, step kernel.Word) batchAffine {
		return batchAffine{Affine: kernel.Affine{Base: base, Step: step}}
	}
	block := func(base, bstep kernel.Word) batchAffine {
		return batchAffine{Affine: kernel.Uniform(base), BStep: bstep}
	}
	cases := []struct {
		width, blocks int
		qcase
	}{
		{32, 1, qcase{lane(64, 1), 32, true}},         // lanes 64..95: quotient 2
		{32, 1, qcase{lane(50, 1), 32, false}},        // boundary at lane 14
		{32, 1, qcase{lane(-31, 1), 32, true}},        // −31..0 truncate to 0
		{32, 1, qcase{lane(-32, 1), 32, false}},       // −1 then 0
		{32, 1, qcase{lane(64, 1), -32, true}},        // negative divisor
		{32, 1, qcase{lane(-95, 1), -32, true}},       // −95..−64: quotient 2
		{7, 1, qcase{lane(min, 0), -1, true}},         // uniform MinInt64 / −1
		{7, 1, qcase{lane(min, 1), -1, false}},        // MinInt64, then −a
		{7, 1, qcase{lane(max-3, 1), 1 << 40, false}}, // end lane overflows
		{7, 1, qcase{lane(5, 1), 0, false}},           // zero divisor traps at lane 0
		{32, 8, qcase{block(8, 1), 8, true}},          // blocks 8..15 by t = 8
		{32, 8, qcase{block(12, 1), 8, false}},        // the batch spans 16
		{32, 3, qcase{block(-9, 1), -3, false}},       // −9, −8, −7 by −3: 3, 2, 2
		{7, 8, qcase{batchAffine{Affine: kernel.Affine{Base: 0, Step: 1}, BStep: 7}, 56, true}},
		{7, 8, qcase{batchAffine{Affine: kernel.Affine{Base: 0, Step: 1}, BStep: 7}, 28, false}},
		{1, 8, qcase{block(min, 1), -1, false}},
		{7, 3, qcase{block(4, -2), 0, false}},
	}
	for _, op := range []kernel.Op{kernel.OpDivI, kernel.OpModI} {
		for _, c := range cases {
			for _, form := range []int{formSetStale, formSetBoth} {
				sc := symCase{width: c.width, blocks: c.blocks, op: op, a: c.a, b: batchAffine{Affine: kernel.Uniform(c.imm)},
					imm: c.imm, formA: form, formB: formSetStale}
				if got := checkSymbolicALU(t, sc); got != c.form && c.imm != 0 {
					t.Errorf("%v: symbolic result %v, want %v", sc, got, c.form)
				}
			}
		}
	}
}

// TestSymbolicAddress checks execAccess on an address register in
// symbolic form against the same access on the written-out column, and
// both against the access written out lane by lane over each block's own
// memory (refAccess): the same pattern, lane 0 address, trap text and
// trapping block, loaded registers and memory, on runs and broadcasts in
// range, off either end and at negative bases, on strides the rule leaves
// to execClassify, and on batches of 3, 8 and memoBatchMax blocks whose
// block step abuts the runs, overlaps them, reverses them or wraps. Shared
// accesses run on the batch's row-interleaved slab, aligned and not, and
// on a batch shorter than its slab (a tail batch). A run or broadcast is
// resolved without writing the register out.
func TestSymbolicAddress(t *testing.T) {
	for _, width := range []int{1, 7, 32} {
		for _, slab := range []int{1, 3, 8, memoBatchMax} {
			for _, blocks := range []int{slab, min(slab, 3) - 1} {
				if blocks == 0 {
					continue
				}
				for _, op := range []kernel.Op{kernel.OpLdGlobal, kernel.OpStGlobal, kernel.OpLdShared, kernel.OpStShared} {
					size := 4*width*slab + 3
					if op == kernel.OpLdShared || op == kernel.OpStShared {
						size = 4*width + 3
					}
					wd, sz := kernel.Word(width), kernel.Word(size)
					bases := []kernel.Word{0, 1, 5, wd, 2*wd + 1, sz - wd, sz - wd + 1, sz - 1, sz, sz + 7, -1, -wd, -wd + 1,
						math.MinInt64, math.MaxInt64, math.MaxInt64 - wd + 2}
					steps := []kernel.Word{0, 1, -1, 2, wd, math.MinInt64, math.MaxInt64}
					bsteps := []kernel.Word{0}
					if blocks > 1 {
						bsteps = []kernel.Word{0, wd, 1, -wd, 2 * wd, math.MinInt64}
					}
					for _, base := range bases {
						for _, step := range steps {
							for _, bstep := range bsteps {
								f := batchAffine{Affine: kernel.Affine{Base: base, Step: step}, BStep: bstep}
								checkSymbolicAddress(t, op, f, width, slab, blocks, size)
							}
						}
					}
				}
			}
		}
	}
}

// symMemory returns the test's memory for an access of op by blocks
// blocks over size words each: one global memory, or one shared memory
// per block, each word distinct.
func symMemory(op kernel.Op, blocks, size int) [][]kernel.Word {
	if op == kernel.OpLdGlobal || op == kernel.OpStGlobal {
		blocks = 1
	}
	mems := make([][]kernel.Word, blocks)
	for b := range mems {
		mems[b] = make([]kernel.Word, size)
		for i := range mems[b] {
			mems[b][i] = kernel.Word(1000 + 100000*b + i)
		}
	}
	return mems
}

// refAccess applies op at the written-out address column ac, source
// column src, lane by lane in ascending block and lane order to mems (one
// memory shared by every block, or one per block), width lanes per block.
// It returns the loaded column and the trap and its block, checked over
// every lane before anything moves.
func refAccess(op kernel.Op, ac, src []kernel.Word, mems [][]kernel.Word, width, size int) (dst []kernel.Word, err string, trapBlock int) {
	mem := func(b int) []kernel.Word { return mems[min(b, len(mems)-1)] }
	for i, a := range ac {
		if uint64(a) >= uint64(size) {
			return nil, execRangeErr(op, i%width, a, size).Error(), i / width
		}
	}
	dst = make([]kernel.Word, len(ac))
	for i, a := range ac {
		if isLoad(op) {
			dst[i] = mem(i / width)[a]
		} else {
			mem(i / width)[a] = src[i]
		}
	}
	return dst, "", 0
}

// checkSymbolicAddress runs op at address f on a batch of blocks blocks of
// width lanes, shaped for slab blocks, over memories of size words, once
// with f in symbolic form and once written out, and compares both with
// refAccess. A shared slab is laid out by its definition: word a of block
// b at (a/width)·slab·width + b·width + a%width.
func checkSymbolicAddress(t *testing.T, op kernel.Op, f batchAffine, width, slab, blocks, size int) {
	t.Helper()
	shared := op == kernel.OpLdShared || op == kernel.OpStShared
	at := func(b, a int) int { return a/width*slab*width + b*width + a%width }
	type outcome struct {
		kind      accessKind
		a0        kernel.Word
		err       string
		trapBlock int
		dst       []kernel.Word
		mems      [][]kernel.Word
	}
	src := make([]kernel.Word, width*blocks)
	for i := range src {
		src[i] = kernel.Word(-1 - i)
	}
	run := func(symbolic bool) (outcome, *warp) {
		sharedWords := 0
		if shared {
			sharedWords = size
		}
		w, base := newSymWarp(width, slab, blocks, 3, sharedWords, 0)
		mems := symMemory(op, blocks, size)
		mem := mems[0]
		if shared {
			mem = w.shared
			for b := range mems {
				for a, v := range mems[b] {
					mem[at(b, a)] = v
				}
			}
		}
		w.setColumn(2, src)
		if symbolic {
			w.execSetForm(0, int(base(0)), f)
		} else {
			w.setColumn(0, formColumn(f, formSetFlat, width, blocks))
		}
		in := &kernel.DInstr{Op: op, Rd: 1, Ra: 0, Rb: 2, D: base(1), A: base(0), B: base(2)}
		kind, a0, err := w.execAccess(in, mem, size, shared, false)
		o := outcome{kind: kind, a0: a0, trapBlock: w.trapBlock, mems: mems}
		if shared {
			for b := range mems {
				for a := range mems[b] {
					mems[b][a] = mem[at(b, a)]
				}
			}
		}
		if err != nil {
			o.err = err.Error()
			o.kind, o.a0 = 0, 0 // unspecified on a trap
		} else if isLoad(op) {
			o.dst = append([]kernel.Word(nil), w.execColumn(1, int(base(1)))...)
		}
		return o, w
	}
	sym, w := run(true)
	flat, _ := run(false)
	ref := outcome{mems: symMemory(op, blocks, size)}
	ref.dst, ref.err, ref.trapBlock = refAccess(op, formColumn(f, formSetFlat, width, blocks), src, ref.mems, width, size)
	if ref.err != "" || !isLoad(op) {
		ref.dst = nil
	}
	name := fmt.Sprintf("width=%d blocks=%d of %d size=%d %v %+v", width, blocks, slab, size, op, f)
	for _, o := range []struct {
		name string
		outcome
	}{{"symbolic", sym}, {"written out", flat}} {
		if o.err != ref.err || o.trapBlock != ref.trapBlock {
			t.Fatalf("%s: %s trap %q in block %d, want %q in block %d", name, o.name, o.err, o.trapBlock, ref.err, ref.trapBlock)
		}
		if !slices.Equal(o.dst, ref.dst) || !slices.EqualFunc(o.mems, ref.mems, slices.Equal) {
			t.Fatalf("%s: %s registers/memory differ from the lane-by-lane access:\n%v %v\n%v %v", name, o.name, o.dst, o.mems, ref.dst, ref.mems)
		}
	}
	if slab == 1 && (sym.kind != flat.kind || sym.a0 != flat.a0) {
		t.Fatalf("%s: symbolic (kind %d, a0 %d), written out (kind %d, a0 %d)", name, sym.kind, sym.a0, flat.kind, flat.a0)
	}
	if _, ok := execAffineKind(f.Affine, width); ok && width*blocks > 2 && w.form[0] != formStale {
		t.Fatalf("%s: a run or broadcast was written out", name)
	}
}

// FuzzSymbolicALU decodes an execALU step from the fuzz input — the
// opcode, the warp width and batch size, each operand's value along the
// lanes and the blocks and its form, and which operand, if any, the
// destination is — and checks it against the column forms on the
// written-out operands, as TestSymbolicALU does.
func FuzzSymbolicALU(f *testing.F) {
	ops := symOps()
	n := len(symEdgeWords)
	for i := range ops {
		for j, v := range symEdgeWords {
			bStep := symEdgeWords[(i+j+1)%n]
			if j%2 == 0 {
				bStep = 0
			}
			f.Add(uint8(i), uint8(j*6), uint8(i+j), v, symEdgeWords[(i+j)%n], symEdgeWords[(i+2*j)%n],
				symEdgeWords[(j+3)%n], bStep, symEdgeWords[(j+5)%n], uint8(i+j))
		}
	}
	f.Fuzz(func(t *testing.T, opIdx, width, blocks uint8, aBase, aStep, aBStep, bBase, bStep, bBStep int64, forms uint8) {
		op := ops[int(opIdx)%len(ops)]
		b := batchAffine{Affine: kernel.Affine{Base: bBase, Step: bStep}, BStep: bBStep}
		if sem := op.Semantics(); sem == nil || sem.Imm {
			b = batchAffine{Affine: kernel.Uniform(bBase)}
		}
		checkSymbolicALU(t, symCase{
			width:  1 + int(width)%32,
			blocks: 1 + int(blocks)%memoBatchMax,
			op:     op,
			a:      batchAffine{Affine: kernel.Affine{Base: aBase, Step: aStep}, BStep: aBStep},
			b:      b,
			imm:    bBase,
			formA:  int(forms) % formSetCount,
			formB:  int(forms/formSetCount) % formSetCount,
			alias:  int(forms/(formSetCount*formSetCount)) % aliasCount,
		})
	})
}
