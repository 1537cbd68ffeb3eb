package pseudocode

import (
	"math"
	"strings"
	"testing"

	"atgpu/internal/mem"
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestFoldOperatorTable drives both constant folders, the kernel's
// evalConst and the plan's evalPlanExpr, through every binary operator
// over edge operands, against Go's own operators with the device's
// shift-amount mask. A zero divisor leaves evalConst unfolded and fails a
// plan with a division or modulo error.
func TestFoldOperatorTable(t *testing.T) {
	ref := []struct {
		op tokKind
		f  func(l, r int64) int64
	}{
		{tokPlus, func(l, r int64) int64 { return l + r }},
		{tokMinus, func(l, r int64) int64 { return l - r }},
		{tokStar, func(l, r int64) int64 { return l * r }},
		{tokSlash, func(l, r int64) int64 { return l / r }},
		{tokPercent, func(l, r int64) int64 { return l % r }},
		{tokShl, func(l, r int64) int64 { return l << uint(r&63) }},
		{tokShr, func(l, r int64) int64 { return l >> uint(r&63) }},
		{tokAmp, func(l, r int64) int64 { return l & r }},
		{tokPipe, func(l, r int64) int64 { return l | r }},
		{tokCaret, func(l, r int64) int64 { return l ^ r }},
		{tokLt, func(l, r int64) int64 { return b2i(l < r) }},
		{tokLe, func(l, r int64) int64 { return b2i(l <= r) }},
		{tokGt, func(l, r int64) int64 { return b2i(l > r) }},
		{tokGe, func(l, r int64) int64 { return b2i(l >= r) }},
		{tokEq, func(l, r int64) int64 { return b2i(l == r) }},
		{tokNe, func(l, r int64) int64 { return b2i(l != r) }},
	}
	if len(ref) != len(binOps) {
		t.Fatalf("reference covers %d operators, binOps has %d", len(ref), len(binOps))
	}
	edges := []int64{math.MinInt64, -1, 0, 1, 63, 64, math.MaxInt64}
	c := &compiler{}
	noNames := func(string) (int64, bool) { return 0, false }
	for _, op := range ref {
		for _, l := range edges {
			for _, r := range edges {
				e := &BinExpr{Op: op.op, L: &NumExpr{Val: l}, R: &NumExpr{Val: r}}
				cv, folded := c.evalConst(e)
				pv, err := evalPlanExpr(e, noNames)
				if r == 0 && (op.op == tokSlash || op.op == tokPercent) {
					want := map[tokKind]string{tokSlash: "division by zero", tokPercent: "modulo by zero"}[op.op]
					if folded {
						t.Errorf("%d %s 0: evalConst folded to %d, want unfolded", l, op.op, cv)
					}
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%d %s 0: plan error %v, want %q", l, op.op, err, want)
					}
					continue
				}
				want := op.f(l, r)
				if !folded || cv != want {
					t.Errorf("%d %s %d: evalConst = %d (folded %v), want %d", l, op.op, r, cv, folded, want)
				}
				if err != nil || pv != want {
					t.Errorf("%d %s %d: evalPlanExpr = %d (%v), want %d", l, op.op, r, pv, err, want)
				}
			}
		}
	}
}

// TestPlanExpressionOperators drives evalPlanExpr through every operator
// by sizing device arrays with computed expressions and transferring them
// out to observe the evaluated sizes.
func TestPlanExpressionOperators(t *testing.T) {
	cases := []struct {
		expr string
		want int
	}{
		{"3 + 4", 7},
		{"10 - 4", 6},
		{"3 * 4", 12},
		{"9 / 2", 4},
		{"9 % 4", 1},
		{"1 << 3", 8},
		{"16 >> 2", 4},
		{"(2 < 3) + 5", 6},
		{"(3 <= 3) + 5", 6},
		{"(4 > 3) + 5", 6},
		{"(4 >= 5) + 5", 5},
		{"(4 == 4) + 5", 6},
		{"(4 != 4) + 5", 5},
		{"(6 & 3) + 1", 3},
		{"(4 | 1) + 1", 6},
		{"(6 ^ 3) + 1", 6},
		{"min(7, 9)", 7},
		{"max(7, 9)", 9},
		{"min(9, 7)", 7},
		{"max(9, 7)", 9},
		{"-3 + 10", 7},
		{"n * 2", 12},
		{"b + 1", 5}, // Tiny warp width 4
	}
	for _, c := range cases {
		src := "plan p(n)\ndev a[" + c.expr + "]\nA W a\n"
		pl, err := ParsePlan(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.expr, err)
		}
		h := planHost(t, 4096)
		res, err := pl.Run(PlanEnv{Host: h, Params: map[string]int64{"n": 6}})
		if err != nil {
			t.Fatalf("%s: run: %v", c.expr, err)
		}
		if got := len(res.Out["A"]); got != c.want {
			t.Errorf("%s: array size %d, want %d", c.expr, got, c.want)
		}
	}
}

func TestPlanExpressionErrors(t *testing.T) {
	cases := []string{
		"plan p()\ndev a[1 / 0]\n",
		"plan p()\ndev a[1 % 0]\n",
		"plan p()\ndev a[unknown]\n",
		"plan p()\ndev a[_s[0]]\n",
		"plan p()\ndev a[global[0]]\n",
		"plan p()\ndev a[min(1)]\n", // parse error at min arity
	}
	for _, src := range cases {
		pl, err := ParsePlan(src)
		if err != nil {
			continue // parse-time rejection is fine too
		}
		if _, err := pl.Run(PlanEnv{Host: planHost(t, 1024)}); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestKernelImmediateComparisons drives emitBinImm's comparison branches:
// every comparison against a constant right operand, per lane.
func TestKernelImmediateComparisons(t *testing.T) {
	src := `
kernel cmp()
  x = core
  global[core * 8 + 0] = (x < 2)
  global[core * 8 + 1] = (x <= 2)
  global[core * 8 + 2] = (x > 2)
  global[core * 8 + 3] = (x >= 2)
  global[core * 8 + 4] = (x == 2)
  global[core * 8 + 5] = (x != 2)
  global[core * 8 + 6] = (x & 1) | (x ^ 1)
  global[core * 8 + 7] = x % 3 + x / 2
`
	out := run(t, src, nil, 1, make([]mem.Word, 40))
	for lane := 0; lane < 4; lane++ {
		x := int64(lane)
		want := []int64{
			b2i(x < 2), b2i(x <= 2), b2i(x > 2), b2i(x >= 2),
			b2i(x == 2), b2i(x != 2),
			(x & 1) | (x ^ 1), x%3 + x/2,
		}
		for i, w := range want {
			if out[lane*8+i] != w {
				t.Fatalf("lane %d slot %d = %d, want %d", lane, i, out[lane*8+i], w)
			}
		}
	}
}

// TestKernelConstFolding drives evalConst over every operator via shared
// array sizes, which must be fully folded.
func TestKernelConstFolding(t *testing.T) {
	cases := []struct {
		expr string
		want int
	}{
		{"2 + 3", 5},
		{"7 - 3", 4},
		{"3 * 3", 9},
		{"9 / 2", 4},
		{"9 % 4", 1},
		{"1 << 2", 4},
		{"8 >> 1", 4},
		{"6 & 3", 2},
		{"6 | 1", 7},
		{"6 ^ 1", 7},
		{"(2 < 3) + 4", 5},
		{"(2 <= 1) + 4", 4},
		{"(2 > 1) + 4", 5},
		{"(2 >= 3) + 4", 4},
		{"(2 == 2) + 4", 5},
		{"(2 != 2) + 4", 4},
		{"min(3, 8)", 3},
		{"max(3, 8)", 8},
		{"b * 2", 8},
		{"n + 1", 7},
	}
	for _, c := range cases {
		src := "kernel k(n)\nshared _s[" + c.expr + "]\nbarrier\n"
		prog, err := CompileSource(src, 4, map[string]int64{"n": 6})
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if prog.SharedWords != c.want {
			t.Errorf("%s: shared = %d, want %d", c.expr, prog.SharedWords, c.want)
		}
	}
}

// TestKernelDivModByZeroConstFold: constant division by zero is not
// foldable and must surface as a compile error at use sites requiring a
// constant.
func TestKernelDivModByZeroConstFold(t *testing.T) {
	for _, expr := range []string{"4 / 0", "4 % 0"} {
		src := "kernel k()\nshared _s[" + expr + "]\nbarrier\n"
		if _, err := CompileSource(src, 4, nil); err == nil {
			t.Errorf("accepted shared size %q", expr)
		}
	}
}

func TestTokenStrings(t *testing.T) {
	for k := tokEOF; k <= tokNe; k++ {
		if k.String() == "" {
			t.Errorf("token kind %d has empty name", k)
		}
	}
	if tokKind(99).String() == "" {
		t.Error("unknown token should still print")
	}
	// token String forms.
	if (token{kind: tokIdent, text: "abc"}).String() != `"abc"` {
		t.Error("ident token string wrong")
	}
	if (token{kind: tokNumber, val: 42}).String() != "42" {
		t.Error("number token string wrong")
	}
	if (token{kind: tokPlus}).String() != "+" {
		t.Error("operator token string wrong")
	}
}
