package pseudocode

import (
	"errors"
	"fmt"

	"atgpu/internal/kernel"
)

// Compile binds the kernel's parameters to concrete values and lowers the
// AST to a kernel.Program for the simulated device. Parameters are
// compile-time constants, matching how the paper's pseudocode instantiates
// a kernel for a particular problem size and memory layout. warpWidth is
// the machine's b — a fixed property of the model instance ATGPU(p,b,M,G),
// so the builtin `b` folds as a constant (shared array sizes like `_a[3*b]`
// depend on it).
func Compile(k *Kernel, warpWidth int, params map[string]int64) (*kernel.Program, error) {
	if warpWidth <= 0 {
		return nil, fmt.Errorf("%w: warp width %d", ErrCompile, warpWidth)
	}
	c := &compiler{
		k:         k,
		warpWidth: int64(warpWidth),
		params:    params,
		vars:      make(map[string]kernel.Reg),
		sharedB:   make(map[string]int64),
	}
	return c.compile()
}

// MustCompile is Compile that panics on error, for static kernels.
func MustCompile(k *Kernel, warpWidth int, params map[string]int64) *kernel.Program {
	p, err := Compile(k, warpWidth, params)
	if err != nil {
		panic(err)
	}
	return p
}

// CompileSource parses and compiles in one step.
func CompileSource(src string, warpWidth int, params map[string]int64) (*kernel.Program, error) {
	k, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(k, warpWidth, params)
}

type compiler struct {
	k         *Kernel
	warpWidth int64
	params    map[string]int64
	b         *kernel.Builder

	vars    map[string]kernel.Reg // named variables (and loop counters)
	sharedB map[string]int64      // shared array name → base offset

	// Builtin registers, materialised in the prologue when used. The
	// builtin `b` needs none: it folds to the compile-time warp width.
	mpReg, coreReg, nbReg    kernel.Reg
	mpUsed, coreUsed, nbUsed bool

	// temps is the per-statement scratch pool: registers here are dead at
	// each statement boundary and may be rewritten by re-executed code,
	// which is safe because every temp is written before read within its
	// statement.
	temps    []kernel.Reg
	tempNext int
}

func (c *compiler) errorf(line int, format string, args ...any) error {
	return fmt.Errorf("%w: kernel %s line %d: %s", ErrCompile, c.k.Name, line, fmt.Sprintf(format, args...))
}

// compile drives the lowering.
func (c *compiler) compile() (*kernel.Program, error) {
	// Check parameter bindings. These errors concern the kernel header, so
	// they carry its line rather than a meaningless 0.
	for _, p := range c.k.Params {
		if _, ok := c.params[p]; !ok {
			return nil, c.errorf(c.k.Line, "parameter %q not bound", p)
		}
	}
	for name := range c.params {
		found := false
		for _, p := range c.k.Params {
			if p == name {
				found = true
				break
			}
		}
		if !found {
			return nil, c.errorf(c.k.Line, "binding for unknown parameter %q", name)
		}
	}

	// Lay out shared arrays; sizes must be compile-time constants.
	sharedTotal := int64(0)
	for _, d := range c.k.Shared {
		if _, dup := c.sharedB[d.Name]; dup {
			return nil, c.errorf(d.Line, "shared %q redeclared", d.Name)
		}
		size, ok := c.evalConst(d.Size)
		if !ok {
			return nil, c.errorf(d.Line, "shared %q size is not a compile-time constant", d.Name)
		}
		if size <= 0 {
			return nil, c.errorf(d.Line, "shared %q size %d must be positive", d.Name, size)
		}
		c.sharedB[d.Name] = sharedTotal
		sharedTotal += size
	}

	c.b = kernel.NewBuilder(c.k.Name, int(sharedTotal))

	// Prologue: materialise used builtins once.
	c.scanBuiltins(c.k.Body)
	if c.mpUsed {
		c.mpReg = c.b.Reg("mp")
		c.b.BlockID(c.mpReg)
	}
	if c.coreUsed {
		c.coreReg = c.b.Reg("core")
		c.b.LaneID(c.coreReg)
	}
	if c.nbUsed {
		c.nbReg = c.b.Reg("nblocks")
		c.b.NumBlocks(c.nbReg)
	}

	if err := c.compileBlock(c.k.Body); err != nil {
		return nil, err
	}
	return c.b.Build()
}

// scanBuiltins walks the AST marking which builtins appear.
func (c *compiler) scanBuiltins(stmts []Stmt) {
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch e := e.(type) {
		case *IdentExpr:
			switch e.Name {
			case "mp":
				c.mpUsed = true
			case "core":
				c.coreUsed = true
			case "nblocks":
				c.nbUsed = true
			}
		case *SharedIndexExpr:
			walkExpr(e.Index)
		case *GlobalIndexExpr:
			walkExpr(e.Index)
		case *BinExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *CallExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *AtomicCall:
			walkExpr(e.Target)
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	var walkStmt func(Stmt)
	walkStmt = func(s Stmt) {
		switch s := s.(type) {
		case *AssignStmt:
			walkExpr(s.Expr)
		case *VarStmt:
			if s.Expr != nil {
				walkExpr(s.Expr)
			}
		case *SharedStoreStmt:
			walkExpr(s.Index)
			walkExpr(s.Expr)
		case *GlobalStoreStmt:
			walkExpr(s.Index)
			walkExpr(s.Expr)
		case *IfStmt:
			walkExpr(s.Cond)
			for _, t := range s.Body {
				walkStmt(t)
			}
		case *ForStmt:
			walkExpr(s.Start)
			walkExpr(s.Limit)
			for _, t := range s.Body {
				walkStmt(t)
			}
		case *AtomicCall:
			walkExpr(s)
		}
	}
	for _, s := range stmts {
		walkStmt(s)
	}
}

// evalConst folds an expression over literals and bound parameters. A
// zero divisor leaves the expression unfolded, so the kernel traps at run
// time exactly where the device would.
func (c *compiler) evalConst(e Expr) (int64, bool) {
	switch e := e.(type) {
	case *NumExpr:
		return e.Val, true
	case *IdentExpr:
		if e.Name == "b" {
			return c.warpWidth, true
		}
		v, ok := c.params[e.Name]
		return v, ok
	case *BinExpr:
		l, ok := c.evalConst(e.L)
		if !ok {
			return 0, false
		}
		r, ok := c.evalConst(e.R)
		if !ok {
			return 0, false
		}
		v, err := fold(e.Op, l, r)
		return v, err == nil
	case *CallExpr:
		if len(e.Args) != 2 {
			return 0, false
		}
		l, ok := c.evalConst(e.Args[0])
		if !ok {
			return 0, false
		}
		r, ok := c.evalConst(e.Args[1])
		if !ok {
			return 0, false
		}
		return foldCall(e.Fn, l, r), true
	}
	return 0, false
}

// binOps maps each binary operator token to the kernel opcode that
// computes it; swap marks > and >=, which compute as slt and sle with the
// operands exchanged (a > b ⇔ b < a), as the compiled kernel does.
var binOps = map[tokKind]struct {
	op   kernel.Op
	swap bool
}{
	tokPlus: {op: kernel.OpAdd}, tokMinus: {op: kernel.OpSub}, tokStar: {op: kernel.OpMul},
	tokSlash: {op: kernel.OpDiv}, tokPercent: {op: kernel.OpMod},
	tokShl: {op: kernel.OpShl}, tokShr: {op: kernel.OpShr},
	tokAmp: {op: kernel.OpAnd}, tokPipe: {op: kernel.OpOr}, tokCaret: {op: kernel.OpXor},
	tokLt: {op: kernel.OpSlt}, tokLe: {op: kernel.OpSle},
	tokGt: {op: kernel.OpSlt, swap: true}, tokGe: {op: kernel.OpSle, swap: true},
	tokEq: {op: kernel.OpSeq}, tokNe: {op: kernel.OpSne},
}

// fold evaluates l op r through the kernel table's lane function for op's
// opcode, so a folded constant equals what the device would compute. It
// fails on a zero divisor and on a token that is not a binary operator.
func fold(op tokKind, l, r int64) (int64, error) {
	bin, ok := binOps[op]
	if !ok {
		return 0, fmt.Errorf("unsupported operator %s", op)
	}
	if bin.swap {
		l, r = r, l
	}
	sem := bin.op.Semantics()
	switch {
	case sem.Trap && r == 0 && bin.op == kernel.OpDiv:
		return 0, errors.New("division by zero")
	case sem.Trap && r == 0:
		return 0, errors.New("modulo by zero")
	}
	return sem.Lane(l, r), nil
}

// foldCall evaluates min(l, r) or max(l, r) through the kernel table.
func foldCall(fn string, l, r int64) int64 {
	op := kernel.OpMax
	if fn == "min" {
		op = kernel.OpMin
	}
	return op.Semantics().Lane(l, r)
}

// --- statement lowering -------------------------------------------------------

func (c *compiler) compileBlock(stmts []Stmt) error {
	for _, s := range stmts {
		c.resetTemps()
		c.b.SetLine(StmtLine(s))
		if err := c.compileStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) compileStmt(s Stmt) error {
	switch s := s.(type) {
	case *VarStmt:
		if _, dup := c.vars[s.Name]; dup {
			return c.errorf(s.Line, "variable %q redeclared", s.Name)
		}
		if _, isParam := c.params[s.Name]; isParam {
			return c.errorf(s.Line, "variable %q shadows a parameter", s.Name)
		}
		r := c.b.Reg(s.Name)
		c.vars[s.Name] = r
		if s.Expr != nil {
			return c.compileExprInto(r, s.Expr)
		}
		c.b.Const(r, 0)
		return nil

	case *AssignStmt:
		r, ok := c.vars[s.Name]
		if !ok {
			// Implicit declaration on first assignment keeps small
			// kernels terse while `var` remains available for clarity.
			if _, isParam := c.params[s.Name]; isParam {
				return c.errorf(s.Line, "cannot assign to parameter %q", s.Name)
			}
			if isKeyword(s.Name) {
				return c.errorf(s.Line, "cannot assign to %q", s.Name)
			}
			r = c.b.Reg(s.Name)
			c.vars[s.Name] = r
		}
		return c.compileExprInto(r, s.Expr)

	case *SharedStoreStmt:
		base, ok := c.sharedB[s.Name]
		if !ok {
			return c.errorf(s.Line, "shared %q not declared", s.Name)
		}
		addr, err := c.compileSharedAddr(base, s.Index, s.Line)
		if err != nil {
			return err
		}
		val, err := c.compileExpr(s.Expr)
		if err != nil {
			return err
		}
		c.b.StShared(addr, val)
		return nil

	case *GlobalStoreStmt:
		addr, err := c.compileExpr(s.Index)
		if err != nil {
			return err
		}
		val, err := c.compileExpr(s.Expr)
		if err != nil {
			return err
		}
		c.b.StGlobal(addr, val)
		return nil

	case *BarrierStmt:
		c.b.Barrier()
		return nil

	case *AtomicCall:
		// Statement form: the returned old value lands in a scratch.
		return c.compileAtomicInto(c.temp(), s)

	case *IfStmt:
		cond, err := c.compileExpr(s.Cond)
		if err != nil {
			return err
		}
		c.b.If(cond)
		if err := c.compileBlock(s.Body); err != nil {
			return err
		}
		// The reconvergence point belongs to the if itself, not to
		// whatever the last body statement happened to be.
		c.b.SetLine(s.Line)
		c.b.EndIf()
		return nil

	case *ForStmt:
		if _, dup := c.vars[s.Var]; dup {
			return c.errorf(s.Line, "loop variable %q redeclared", s.Var)
		}
		counter := c.b.Reg(s.Var)
		c.vars[s.Var] = counter

		var startOp kernel.Operand
		if v, ok := c.evalConst(s.Start); ok {
			startOp = kernel.Imm(v)
		} else {
			r, err := c.compileExpr(s.Start)
			if err != nil {
				return err
			}
			startOp = kernel.R(r)
		}
		var limitOp kernel.Operand
		if v, ok := c.evalConst(s.Limit); ok {
			limitOp = kernel.Imm(v)
		} else {
			// The loop head re-reads the limit every iteration, so the
			// limit must live in a register outside the temp pool.
			hold := c.b.Reg()
			if err := c.compileExprInto(hold, s.Limit); err != nil {
				return err
			}
			limitOp = kernel.R(hold)
		}
		c.b.For(counter, startOp, limitOp, s.Step)
		if err := c.compileBlock(s.Body); err != nil {
			return err
		}
		c.b.SetLine(s.Line)
		c.b.EndFor()
		delete(c.vars, s.Var)
		return nil
	}
	return c.errorf(StmtLine(s), "unhandled statement %T", s)
}

// compileSharedAddr produces base+index, folding constant indices.
func (c *compiler) compileSharedAddr(base int64, idx Expr, line int) (kernel.Reg, error) {
	r := c.temp()
	if v, ok := c.evalConst(idx); ok {
		c.b.Const(r, base+v)
		return r, nil
	}
	ir, err := c.compileExpr(idx)
	if err != nil {
		return 0, err
	}
	if base == 0 {
		return ir, nil
	}
	c.b.Add(r, ir, kernel.Imm(base))
	return r, nil
}

// --- expression lowering --------------------------------------------------------

// temp allocates a per-statement scratch register, reusing the pool across
// statements.
func (c *compiler) temp() kernel.Reg {
	if c.tempNext < len(c.temps) {
		r := c.temps[c.tempNext]
		c.tempNext++
		return r
	}
	r := c.b.Reg()
	c.temps = append(c.temps, r)
	c.tempNext++
	return r
}

func (c *compiler) resetTemps() { c.tempNext = 0 }

// compileExpr evaluates e into some register (possibly a named variable's
// register for a bare identifier).
func (c *compiler) compileExpr(e Expr) (kernel.Reg, error) {
	if v, ok := c.evalConst(e); ok {
		r := c.temp()
		c.b.Const(r, v)
		return r, nil
	}
	switch e := e.(type) {
	case *IdentExpr:
		switch e.Name {
		case "mp":
			return c.mpReg, nil
		case "core":
			return c.coreReg, nil
		case "nblocks":
			return c.nbReg, nil
		}
		if r, ok := c.vars[e.Name]; ok {
			return r, nil
		}
		return 0, c.errorf(e.Line, "undefined variable %q", e.Name)
	default:
		r := c.temp()
		if err := c.compileExprInto(r, e); err != nil {
			return 0, err
		}
		return r, nil
	}
}

// compileExprInto evaluates e into rd.
func (c *compiler) compileExprInto(rd kernel.Reg, e Expr) error {
	if v, ok := c.evalConst(e); ok {
		c.b.Const(rd, v)
		return nil
	}
	switch e := e.(type) {
	case *IdentExpr:
		src, err := c.compileExpr(e)
		if err != nil {
			return err
		}
		if src != rd {
			c.b.Mov(rd, src)
		}
		return nil

	case *SharedIndexExpr:
		base, ok := c.sharedB[e.Name]
		if !ok {
			return c.errorf(e.Line, "shared %q not declared", e.Name)
		}
		addr, err := c.compileSharedAddr(base, e.Index, e.Line)
		if err != nil {
			return err
		}
		c.b.LdShared(rd, addr)
		return nil

	case *GlobalIndexExpr:
		addr, err := c.compileExpr(e.Index)
		if err != nil {
			return err
		}
		c.b.LdGlobal(rd, addr)
		return nil

	case *BinExpr:
		l, err := c.compileExpr(e.L)
		if err != nil {
			return err
		}
		// Constant right operand: use immediate forms.
		if rv, ok := c.evalConst(e.R); ok {
			return c.emitBinImm(rd, l, e.Op, rv, e.Line)
		}
		r, err := c.compileExpr(e.R)
		if err != nil {
			return err
		}
		return c.emitBin(rd, l, e.Op, r, e.Line)

	case *CallExpr:
		if len(e.Args) != 2 {
			return c.errorf(e.Line, "%s expects 2 arguments", e.Fn)
		}
		l, err := c.compileExpr(e.Args[0])
		if err != nil {
			return err
		}
		r, err := c.compileExpr(e.Args[1])
		if err != nil {
			return err
		}
		if e.Fn == "min" {
			c.b.Min(rd, l, kernel.R(r))
		} else {
			c.b.Max(rd, l, kernel.R(r))
		}
		return nil

	case *AtomicCall:
		return c.compileAtomicInto(rd, e)
	}
	return c.errorf(ExprLine(e), "unhandled expression %T", e)
}

// compileAtomicInto lowers an atomic builtin: the target element's address,
// the operand value, and for atomcas the compare value — which travels in rd
// because the instruction reads Rd as compare-in and overwrites it with the
// old value.
func (c *compiler) compileAtomicInto(rd kernel.Reg, e *AtomicCall) error {
	var addr kernel.Reg
	var space kernel.Word
	switch t := e.Target.(type) {
	case *SharedIndexExpr:
		base, ok := c.sharedB[t.Name]
		if !ok {
			return c.errorf(t.Line, "shared %q not declared", t.Name)
		}
		a, err := c.compileSharedAddr(base, t.Index, t.Line)
		if err != nil {
			return err
		}
		addr, space = a, kernel.AtomShared
	case *GlobalIndexExpr:
		a, err := c.compileExpr(t.Index)
		if err != nil {
			return err
		}
		addr, space = a, kernel.AtomGlobal
	default:
		return c.errorf(e.Line, "%s target must be a shared or global element", e.Fn)
	}

	nargs := 1
	if e.Fn == "atomcas" {
		nargs = 2
	}
	if len(e.Args) != nargs {
		return c.errorf(e.Line, "%s expects %d argument(s) after the target", e.Fn, nargs)
	}
	val, err := c.compileExpr(e.Args[nargs-1])
	if err != nil {
		return err
	}
	if e.Fn == "atomcas" {
		// Evaluating the compare value into rd happens last so the address
		// and operand could still read rd's old contents; if either already
		// lives in rd, park it in a scratch first.
		if addr == rd {
			t := c.temp()
			c.b.Mov(t, addr)
			addr = t
		}
		if val == rd {
			t := c.temp()
			c.b.Mov(t, val)
			val = t
		}
		if err := c.compileExprInto(rd, e.Args[0]); err != nil {
			return err
		}
	}
	switch e.Fn {
	case "atomadd":
		c.b.AtomAdd(space, rd, addr, val)
	case "atommax":
		c.b.AtomMax(space, rd, addr, val)
	case "atomexch":
		c.b.AtomExch(space, rd, addr, val)
	default:
		c.b.AtomCAS(space, rd, addr, val)
	}
	return nil
}

func (c *compiler) emitBin(rd, l kernel.Reg, op tokKind, r kernel.Reg, line int) error {
	o := kernel.R(r)
	switch op {
	case tokPlus:
		c.b.Add(rd, l, o)
	case tokMinus:
		c.b.Sub(rd, l, o)
	case tokStar:
		c.b.Mul(rd, l, o)
	case tokSlash:
		c.b.Div(rd, l, o)
	case tokPercent:
		c.b.Mod(rd, l, o)
	case tokShl:
		c.b.Shl(rd, l, o)
	case tokShr:
		c.b.Shr(rd, l, o)
	case tokAmp:
		c.b.And(rd, l, o)
	case tokPipe:
		c.b.Or(rd, l, o)
	case tokCaret:
		c.b.Xor(rd, l, o)
	case tokLt:
		c.b.Slt(rd, l, o)
	case tokLe:
		c.b.Sle(rd, l, o)
	case tokGt:
		c.b.Slt(rd, r, kernel.R(l)) // a > b ⇔ b < a
	case tokGe:
		c.b.Sle(rd, r, kernel.R(l))
	case tokEq:
		c.b.Seq(rd, l, o)
	case tokNe:
		c.b.Sne(rd, l, o)
	default:
		return c.errorf(line, "unsupported operator %s", op)
	}
	return nil
}

func (c *compiler) emitBinImm(rd, l kernel.Reg, op tokKind, imm int64, line int) error {
	o := kernel.Imm(imm)
	switch op {
	case tokPlus:
		c.b.Add(rd, l, o)
	case tokMinus:
		c.b.Sub(rd, l, o)
	case tokStar:
		c.b.Mul(rd, l, o)
	case tokSlash:
		if imm == 0 {
			return c.errorf(line, "division by constant zero")
		}
		c.b.Div(rd, l, o)
	case tokPercent:
		if imm == 0 {
			return c.errorf(line, "modulo by constant zero")
		}
		c.b.Mod(rd, l, o)
	case tokShl:
		c.b.Shl(rd, l, o)
	case tokShr:
		c.b.Shr(rd, l, o)
	case tokAmp:
		c.b.And(rd, l, o)
	case tokPipe:
		c.b.Or(rd, l, o)
	case tokCaret:
		c.b.Xor(rd, l, o)
	case tokLt:
		c.b.Slt(rd, l, o)
	case tokLe:
		c.b.Sle(rd, l, o)
	case tokGt:
		// a > imm ⇔ !(a <= imm) ⇔ (a <= imm) == 0
		c.b.Sle(rd, l, o)
		c.b.Seq(rd, rd, kernel.Imm(0))
	case tokGe:
		c.b.Slt(rd, l, o)
		c.b.Seq(rd, rd, kernel.Imm(0))
	case tokEq:
		c.b.Seq(rd, l, o)
	case tokNe:
		c.b.Sne(rd, l, o)
	default:
		return c.errorf(line, "unsupported operator %s", op)
	}
	return nil
}
