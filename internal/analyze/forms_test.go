package analyze

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"atgpu/internal/kernel"
)

// The register forms must be invisible: whatever the analyzer computes on
// a register in a form must equal, written out, what the per-lane code
// computes on the written-out register. These tests pin that for every
// opcode formCompute evaluates and for the closed-form access counters.

// formEdgeWords are the bases, steps and interval ends the tests combine:
// TestSymbolicALU's edge values, where two's-complement arithmetic wraps.
var formEdgeWords = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 62}

// formOps lists the opcodes the interpreter hands to formCompute.
func formOps() []kernel.Op {
	var ops []kernel.Op
	for op := kernel.Op(0); op.Valid(); op++ {
		if op.Semantics() != nil && op != kernel.OpConst && op != kernel.OpMov {
			ops = append(ops, op)
		}
	}
	return ops
}

// formCase is one formCompute step: an opcode on two operand forms over a
// warp of width lanes. b is uniformForm(known(Imm)) for an immediate form.
type formCase struct {
	op    kernel.Op
	width int
	a, b  regForm
}

func (c formCase) String() string {
	return fmt.Sprintf("%v width=%d a=%+v b=%+v", c.op, c.width, c.a, c.b)
}

// checkFormCompute runs c through formCompute and, when it gives a form,
// checks the form written out against the opcode's interval transfer lane
// by lane on the written-out operands. It reports whether the form path
// answered.
func checkFormCompute(t *testing.T, c formCase) bool {
	t.Helper()
	sem := c.op.Semantics()
	d, ok := formCompute(sem, &c.a, &c.b, c.width)
	if !ok {
		return false
	}
	if d.kind == formColumn || d.kind == formAffine && d.f.Step == 0 {
		t.Fatalf("%v: result %+v is not a canonical form", c, d)
	}
	for l := 0; l < c.width; l++ {
		av, bv := c.a.lane(l), c.b.lane(l)
		if sem.Trap && bv.contains(0) {
			t.Fatalf("%v: form given for a divisor containing 0 on lane %d", c, l)
		}
		if got, want := d.lane(l), vTransfer(sem, av, bv); got != want {
			t.Fatalf("%v: lane %d: form %+v gives %+v, per-lane %+v", c, l, d, got, want)
		}
	}
	return true
}

// formOperands are the operand forms TestFormCompute combines: known
// uniform and lane-affine values over the edge words, and uniform
// intervals from a point to the full range.
func formOperands(width int) []regForm {
	var forms []regForm
	for _, base := range formEdgeWords {
		for _, step := range formEdgeWords {
			forms = append(forms, affineForm(kernel.Affine{Base: base, Step: step}, width))
		}
	}
	for _, lo := range formEdgeWords {
		for _, hi := range formEdgeWords {
			if lo < hi {
				forms = append(forms, uniformForm(V{lo, hi}))
			}
		}
	}
	return forms
}

// TestFormCompute runs every opcode formCompute evaluates on known uniform,
// lane-affine and interval operands at widths 1, 7 and 32, and checks the
// result against the per-lane interpreter's interval transfer. It also
// checks that the form path is exercised: every opcode answers on uniform
// operands, and every opcode with a Sym rule on lane-affine ones.
func TestFormCompute(t *testing.T) {
	for _, op := range formOps() {
		sem := op.Semantics()
		uniform, affine := 0, 0
		for _, width := range []int{1, 7, 32} {
			operands := formOperands(width)
			bs := operands
			if sem.Imm {
				bs = nil
				for _, v := range formEdgeWords {
					bs = append(bs, uniformForm(known(v)))
				}
			}
			for _, a := range operands {
				for _, b := range bs {
					if !checkFormCompute(t, formCase{op: op, width: width, a: a, b: b}) || width == 1 {
						continue
					}
					if a.kind == formUniform && b.kind == formUniform {
						uniform++
					} else {
						affine++
					}
				}
			}
		}
		if uniform == 0 {
			t.Errorf("%v: no form on uniform operands", op)
		}
		if affine == 0 && sem.Sym != nil {
			t.Errorf("%v: no form on lane-affine operands", op)
		}
	}
}

// FuzzAnalyzeForms decodes a formCompute step from the fuzz input — the
// opcode, the warp width, and each operand's form (an interval uniform on
// every lane, or a known base + step·lane) and values — and checks it
// against the per-lane interval transfer, as TestFormCompute does.
func FuzzAnalyzeForms(f *testing.F) {
	ops := formOps()
	n := len(formEdgeWords)
	for i := range ops {
		for j, v := range formEdgeWords {
			f.Add(uint8(i), uint8(j*6), v, formEdgeWords[(i+j)%n], formEdgeWords[(j+3)%n], formEdgeWords[(i+j+1)%n], uint8(i+j))
		}
	}
	f.Fuzz(func(t *testing.T, opIdx, width uint8, a0, a1, b0, b1 int64, kinds uint8) {
		op := ops[int(opIdx)%len(ops)]
		w := 1 + int(width)%64
		operand := func(x, y int64, kind uint8) regForm {
			if kind%2 == 0 {
				return affineForm(kernel.Affine{Base: x, Step: y}, w)
			}
			return uniformForm(V{min(x, y), max(x, y)})
		}
		b := operand(b0, b1, kinds>>1)
		if op.Semantics().Imm {
			b = uniformForm(known(b0))
		}
		checkFormCompute(t, formCase{op: op, width: w, a: operand(a0, a1, kinds), b: b})
	})
}

// TestFormAccessMatchesGather checks the closed-form access counters on
// every in-range lane-affine address of small memories against the
// per-lane counters over the same addresses gathered: the transaction
// count (formTransactions vs gatheredTransactions) and the bank-conflict
// degree and witness lanes (formConflict vs conflictDegree), with and
// without broadcast reads, for the whole warp and for active prefixes
// (lanes 0..n-1 active, the rest masked). It also checks formAddr takes
// exactly the in-range, non-wrapping addresses of the active lanes.
func TestFormAccessMatchesGather(t *testing.T) {
	for _, width := range []int{1, 2, 3, 4, 6, 8, 32, 64} {
		size := 3*width + 5
		for _, bc := range []bool{false, true} {
			a := &analysis{
				prog: &kernel.Program{NumRegs: 1},
				opt:  Options{Machine: Machine{Width: width, BroadcastSharedReads: bc}},
			}
			b := newBlockRun(a, 0)
			steps := []int64{math.MinInt64, math.MaxInt64, 1 << 62}
			for s := int64(-2*int64(width) - 3); s <= 2*int64(width)+3; s++ {
				steps = append(steps, s)
			}
			prefixes := []int{width}
			for _, n := range []int{1, 2, width / 2, width - 1} {
				if n >= 1 && n <= width && !slices.Contains(prefixes, n) {
					prefixes = append(prefixes, n)
				}
			}
			for _, n := range prefixes {
				b.may = laneBit(n) - 1
				b.must = b.may
				b.recount()
				if b.prefix != n || b.allMust != (n == width) {
					t.Fatalf("width=%d: lanes 0..%d active: prefix %d, allMust %v", width, n-1, b.prefix, b.allMust)
				}
				for base := int64(-2); base <= int64(size)+1; base++ {
					for _, step := range steps {
						f := kernel.Affine{Base: base, Step: step}
						b.forms[0] = affineForm(f, width)
						inRange := true
						for l := 0; l < n; l++ {
							x := f.Lane(l)
							inRange = inRange && x >= 0 && x < int64(size)
						}
						_, fits := f.Last(n)
						if width == 1 {
							fits = true // a one-lane warp keeps the base as a uniform form
						}
						name := fmt.Sprintf("width=%d prefix=%d broadcast=%v base=%d step=%d", width, n, bc, base, step)
						got, ok := b.formAddr(0, size)
						if ok != (inRange && fits) {
							t.Fatalf("%s: formAddr ok=%v, addresses in range %v, no lane wraps %v", name, ok, inRange, fits)
						}
						if !ok {
							continue
						}
						b.formLanes(got)
						for l := 0; l < width; l++ {
							if want := f.Lane(l); l < n && b.addrs[l] != want || l >= n && b.addrs[l] != laneMasked {
								t.Fatalf("%s: formLanes lane %d = %d", name, l, b.addrs[l])
							}
						}
						wantTxn, _ := b.gatheredTransactions()
						if txn := formTransactions(got, n, width); txn != wantTxn {
							t.Errorf("%s: formTransactions %d, gathered %d", name, txn, wantTxn)
						}
						wantDeg, wantLanes := b.conflictDegree()
						deg, lanes := formConflict(got, n, width, bc)
						if deg != wantDeg || !slices.Equal(lanes, wantLanes) {
							t.Errorf("%s: formConflict (%d, %v), conflictDegree (%d, %v)", name, deg, lanes, wantDeg, wantLanes)
						}
					}
				}
			}
		}
	}
}

// TestRecountPrefix checks the mask summary on every may/must pair of
// small warps (must ⊆ may): prefix is k exactly when both masks are lanes
// 0..k-1, and -1 otherwise.
func TestRecountPrefix(t *testing.T) {
	for _, width := range []int{1, 2, 3, 5} {
		a := &analysis{prog: &kernel.Program{NumRegs: 1}, opt: Options{Machine: Machine{Width: width}}}
		b := newBlockRun(a, 0)
		if b.prefix != width {
			t.Fatalf("width=%d: fresh block prefix %d", width, b.prefix)
		}
		for may := 0; may < 1<<width; may++ {
			for must := 0; must < 1<<width; must++ {
				if must&^may != 0 {
					continue
				}
				b.may, b.must = uint64(may), uint64(must)
				b.recount()
				want := -1
				for k := 0; k <= width; k++ {
					if may == 1<<k-1 && must == may {
						want = k
					}
				}
				if b.prefix != want {
					t.Errorf("width=%d may=%b must=%b: prefix %d, want %d", width, may, must, b.prefix, want)
				}
			}
		}
	}
}

// TestMaskedWritesKeepInactiveLanes writes register r1, uniform 7, under
// an if that leaves lanes 0 and 1 active, then stores to r1·8 + 100. Each
// writer must change only the active lanes: a form set on every lane
// would move the store's transaction count.
func TestMaskedWritesKeepInactiveLanes(t *testing.T) {
	for _, c := range []struct {
		name   string
		writer func(kb *kernel.Builder, r1, lane kernel.Reg)
		txn    int64 // lanes 2..7 store to 156, block 19
	}{
		{"const", func(kb *kernel.Builder, r1, _ kernel.Reg) { kb.Const(r1, 50) }, 2},                                    // 500
		{"laneid", func(kb *kernel.Builder, r1, _ kernel.Reg) { kb.LaneID(r1) }, 3},                                      // 100, 108
		{"addi", func(kb *kernel.Builder, r1, _ kernel.Reg) { kb.Add(r1, r1, kernel.Imm(1)) }, 2},                        // 164
		{"mov", func(kb *kernel.Builder, r1, lane kernel.Reg) { kb.Mov(r1, lane) }, 3},                                   // 100, 108
		{"ld.shared", func(kb *kernel.Builder, r1, lane kernel.Reg) { kb.LdShared(r1, lane) }, 2},                        // 100
		{"ld.global", func(kb *kernel.Builder, r1, lane kernel.Reg) { kb.LdGlobal(r1, lane) }, 3},                        // unknown
		{"atom.add", func(kb *kernel.Builder, r1, lane kernel.Reg) { kb.AtomAdd(kernel.AtomGlobal, r1, lane, lane) }, 3}, // unknown
	} {
		kb := kernel.NewBuilder("masked-"+c.name, 8)
		lane, r1, cond, addr := kb.Reg(), kb.Reg(), kb.Reg(), kb.Reg()
		kb.LaneID(lane)
		kb.Const(r1, 7)
		kb.Slt(cond, lane, kernel.Imm(2))
		kb.IfDo(cond, func() { c.writer(kb, r1, lane) })
		kb.Mul(addr, r1, kernel.Imm(8))
		kb.Add(addr, addr, kernel.Imm(100))
		kb.StGlobal(addr, lane)
		rep, err := Program(kb.MustBuild(), Options{Machine: Machine{Width: 8, SharedWords: 64, GlobalWords: 1024, NumSMs: 1, MaxBlocksPerSM: 1}, Blocks: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got int64 = -1
		for _, s := range rep.Sites {
			if s.Op == kernel.OpStGlobal {
				got = s.Transactions
			}
		}
		if got != c.txn {
			t.Errorf("%s: store after a masked write: %d transactions, want %d", c.name, got, c.txn)
		}
	}
}

// TestDivergentBranchWitness pins the divergent uniform-branch finding's
// witness: the lowest may-active lane on each side of the branch
// condition, in the message's (true vs false) order. A loop's brnz tests
// its exit condition, so the true side is the lanes whose trip count, cond,
// is 0.
func TestDivergentBranchWitness(t *testing.T) {
	for _, c := range []struct {
		name  string
		cond  func(kb *kernel.Builder, cond, lane kernel.Reg)
		guard int64 // lanes ≥ guard run the branch (0: all)
		lanes []int
		msg   string
	}{
		{"low lanes true", func(kb *kernel.Builder, cond, lane kernel.Reg) { kb.Slt(cond, lane, kernel.Imm(2)) }, 0, []int{0, 2}, "(2 vs 0)"},
		{"high lanes true", func(kb *kernel.Builder, cond, lane kernel.Reg) {
			kb.Slt(cond, lane, kernel.Imm(5))
			kb.Seq(cond, cond, kernel.Imm(0))
		}, 0, []int{0, 5}, "(0 vs 5)"},
		{"under an if", func(kb *kernel.Builder, cond, lane kernel.Reg) { kb.And(cond, lane, kernel.Imm(1)) }, 2, []int{2, 3}, "(2 vs 3)"},
	} {
		kb := kernel.NewBuilder("diverge", 0)
		lane, cond, g := kb.Reg(), kb.Reg(), kb.Reg()
		kb.LaneID(lane)
		kb.Slt(g, lane, kernel.Imm(c.guard))
		kb.Seq(g, g, kernel.Imm(0))
		kb.IfDo(g, func() {
			c.cond(kb, cond, lane)
			kb.For(kb.Reg(), kernel.Imm(0), kernel.R(cond), 1)
			kb.EndFor()
		})
		rep, err := Program(kb.MustBuild(), Options{Machine: Machine{Width: 8, SharedWords: 64, GlobalWords: 64, NumSMs: 1, MaxBlocksPerSM: 1}, Blocks: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got *Finding
		for i, f := range rep.Findings {
			if f.Analyzer == AnalyzerDivergence && strings.Contains(f.Message, "divergent uniform branch") {
				got = &rep.Findings[i]
			}
		}
		if got == nil {
			t.Fatalf("%s: no divergent-branch finding in %+v", c.name, rep.Findings)
		}
		if !slices.Equal(got.Lanes, c.lanes) || !strings.Contains(got.Message, c.msg) {
			t.Errorf("%s: lanes %v, message %q; want lanes %v and %q", c.name, got.Lanes, got.Message, c.lanes, c.msg)
		}
	}
}
