package pseudocode

import (
	"fmt"
	"strings"

	"atgpu/internal/mem"
	"atgpu/internal/simgpu"
)

// Plan is the host side of the paper's pseudocode: the wrapper that
// allocates device arrays, moves data with the W operator, launches
// kernels and synchronises — the round structure of Section II. Variable
// scope follows the paper's naming convention: "Host variables ... their
// names begin with capital letter. Global variables ... begin with lower
// case letter."
//
// Grammar (line-oriented, '#' comments):
//
//	plan NAME(param, ...)
//	dev name[expr]                         device global allocation
//	name W Name                            inward transfer (device ← host)
//	Name W name                            outward transfer (host ← device)
//	launch kernelname(arg = expr, ...) blocks expr
//	sync                                   end of round (charges σ)
//
// Plan-level expressions use the same syntax as kernel expressions but
// evaluate at plan execution time over: bound parameters, device array
// base addresses (the array name), array sizes (`len name` is not needed —
// sizes are params in practice), and the device builtin b.
type Plan struct {
	Name   string
	Params []string
	Stmts  []PlanStmt
}

// PlanStmt is a host-side statement.
type PlanStmt interface{ planStmtNode() }

// DevDecl allocates a device array.
type DevDecl struct {
	Name string
	Size Expr
	Line int
}

// TransferStmt is the W operator. In is true for host→device (the
// destination is a device array), false for device→host.
type TransferStmt struct {
	In bool
	// Device is the device array name; Host the host buffer name.
	Device string
	Host   string
	Line   int
}

// LaunchStmt runs a kernel.
type LaunchStmt struct {
	Kernel string
	Args   []LaunchArg
	Blocks Expr
	Line   int
}

// LaunchArg binds one kernel parameter.
type LaunchArg struct {
	Name string
	Val  Expr
}

// SyncStmt ends a round.
type SyncStmt struct{ Line int }

func (*DevDecl) planStmtNode()      {}
func (*TransferStmt) planStmtNode() {}
func (*LaunchStmt) planStmtNode()   {}
func (*SyncStmt) planStmtNode()     {}

// isHostName reports whether a name follows the paper's host (capitalised)
// convention.
func isHostName(s string) bool { return len(s) > 0 && s[0] >= 'A' && s[0] <= 'Z' }

// ParsePlan parses a plan definition.
func ParsePlan(src string) (*Plan, error) {
	toks, err := newLexer(src).lex()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parsePlan()
}

func (p *parser) parsePlan() (*Plan, error) {
	p.skipNewlines()
	kw, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if kw.text != "plan" {
		return nil, p.errorf(kw, "expected 'plan', got %q", kw.text)
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	pl := &Plan{Name: name.text}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	if p.cur().kind != tokRParen {
		for {
			pn, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			pl.Params = append(pl.Params, pn.text)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokNewline); err != nil {
		return nil, err
	}

	for {
		p.skipNewlines()
		if p.cur().kind == tokEOF {
			return pl, nil
		}
		st, err := p.parsePlanStmt()
		if err != nil {
			return nil, err
		}
		pl.Stmts = append(pl.Stmts, st)
	}
}

func (p *parser) parsePlanStmt() (PlanStmt, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, p.errorf(t, "expected plan statement, got %s", t)
	}
	switch t.text {
	case "sync":
		p.next()
		if _, err := p.expect(tokNewline); err != nil {
			return nil, err
		}
		return &SyncStmt{Line: t.line}, nil

	case "dev":
		p.next()
		n, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if isHostName(n.text) || strings.HasPrefix(n.text, "_") {
			return nil, p.errorf(n, "device array %q must begin with a lower-case letter (paper convention)", n.text)
		}
		if _, err := p.expect(tokLBracket); err != nil {
			return nil, err
		}
		size, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokNewline); err != nil {
			return nil, err
		}
		return &DevDecl{Name: n.text, Size: size, Line: t.line}, nil

	case "launch":
		p.next()
		kn, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		st := &LaunchStmt{Kernel: kn.text, Line: t.line}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		if p.cur().kind != tokRParen {
			for {
				an, err := p.expect(tokIdent)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokAssign); err != nil {
					return nil, err
				}
				val, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				st.Args = append(st.Args, LaunchArg{Name: an.text, Val: val})
				if p.cur().kind != tokComma {
					break
				}
				p.next()
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		bk, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if bk.text != "blocks" {
			return nil, p.errorf(bk, "expected 'blocks', got %q", bk.text)
		}
		blocks, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokNewline); err != nil {
			return nil, err
		}
		st.Blocks = blocks
		return st, nil
	}

	// Transfer: `x W Y` or `X W y`.
	first := p.next()
	w, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if w.text != "W" {
		return nil, p.errorf(w, "expected the W transfer operator, got %q", w.text)
	}
	second, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokNewline); err != nil {
		return nil, err
	}
	switch {
	case !isHostName(first.text) && isHostName(second.text):
		return &TransferStmt{In: true, Device: first.text, Host: second.text, Line: t.line}, nil
	case isHostName(first.text) && !isHostName(second.text):
		return &TransferStmt{In: false, Host: first.text, Device: second.text, Line: t.line}, nil
	default:
		return nil, p.errorf(t, "W must pair one host (capitalised) and one device (lower-case) name: %q W %q", first.text, second.text)
	}
}

// PlanEnv supplies everything a plan needs at execution time.
type PlanEnv struct {
	// Host executes transfers and launches on its simulated timeline.
	Host *simgpu.Host
	// Kernels maps kernel names referenced by launch statements to their
	// parsed definitions.
	Kernels map[string]*Kernel
	// Params binds the plan's parameters.
	Params map[string]int64
	// In supplies host buffers for inward transfers by name.
	In map[string][]mem.Word
}

// PlanResult carries outward-transferred host buffers by name.
type PlanResult struct {
	Out map[string][]mem.Word
}

// Run executes the plan: allocations, W transfers, launches and syncs, in
// order, against env.Host. Kernels are compiled on first use with the
// plan's parameter bindings resolved per launch.
func (pl *Plan) Run(env PlanEnv) (*PlanResult, error) {
	if env.Host == nil {
		return nil, fmt.Errorf("%w: plan %s: nil host", ErrCompile, pl.Name)
	}
	for _, p := range pl.Params {
		if _, ok := env.Params[p]; !ok {
			return nil, fmt.Errorf("%w: plan %s: parameter %q not bound", ErrCompile, pl.Name, p)
		}
	}
	width := env.Host.Device().Config().WarpWidth

	arrays := make(map[string]struct{ base, size int })
	resolve := func(name string) (int64, bool) {
		if name == "b" {
			return int64(width), true
		}
		if v, ok := env.Params[name]; ok {
			return v, true
		}
		if a, ok := arrays[name]; ok {
			return int64(a.base), true
		}
		return 0, false
	}
	res := &PlanResult{Out: make(map[string][]mem.Word)}

	for _, st := range pl.Stmts {
		switch st := st.(type) {
		case *DevDecl:
			if _, dup := arrays[st.Name]; dup {
				return nil, fmt.Errorf("%w: plan %s line %d: array %q redeclared", ErrCompile, pl.Name, st.Line, st.Name)
			}
			size, err := evalPlanExpr(st.Size, resolve)
			if err != nil {
				return nil, fmt.Errorf("%w: plan %s line %d: %v", ErrCompile, pl.Name, st.Line, err)
			}
			if size <= 0 {
				return nil, fmt.Errorf("%w: plan %s line %d: array %q size %d", ErrCompile, pl.Name, st.Line, st.Name, size)
			}
			base, err := env.Host.Malloc(int(size))
			if err != nil {
				return nil, fmt.Errorf("plan %s line %d: %w", pl.Name, st.Line, err)
			}
			arrays[st.Name] = struct{ base, size int }{base, int(size)}

		case *TransferStmt:
			arr, ok := arrays[st.Device]
			if !ok {
				return nil, fmt.Errorf("%w: plan %s line %d: unknown device array %q", ErrCompile, pl.Name, st.Line, st.Device)
			}
			if st.In {
				buf, ok := env.In[st.Host]
				if !ok {
					return nil, fmt.Errorf("%w: plan %s line %d: no host buffer %q", ErrCompile, pl.Name, st.Line, st.Host)
				}
				if len(buf) > arr.size {
					return nil, fmt.Errorf("%w: plan %s line %d: buffer %q (%d words) exceeds array %q (%d)",
						ErrCompile, pl.Name, st.Line, st.Host, len(buf), st.Device, arr.size)
				}
				if err := env.Host.TransferIn(arr.base, buf); err != nil {
					return nil, fmt.Errorf("plan %s line %d: %w", pl.Name, st.Line, err)
				}
			} else {
				out, err := env.Host.TransferOut(arr.base, arr.size)
				if err != nil {
					return nil, fmt.Errorf("plan %s line %d: %w", pl.Name, st.Line, err)
				}
				res.Out[st.Host] = out
			}

		case *LaunchStmt:
			k, ok := env.Kernels[st.Kernel]
			if !ok {
				return nil, fmt.Errorf("%w: plan %s line %d: unknown kernel %q", ErrCompile, pl.Name, st.Line, st.Kernel)
			}
			bindings := make(map[string]int64, len(st.Args))
			for _, a := range st.Args {
				v, err := evalPlanExpr(a.Val, resolve)
				if err != nil {
					return nil, fmt.Errorf("%w: plan %s line %d: arg %s: %v", ErrCompile, pl.Name, st.Line, a.Name, err)
				}
				bindings[a.Name] = v
			}
			prog, err := Compile(k, width, bindings)
			if err != nil {
				return nil, fmt.Errorf("plan %s line %d: %w", pl.Name, st.Line, err)
			}
			blocks, err := evalPlanExpr(st.Blocks, resolve)
			if err != nil {
				return nil, fmt.Errorf("%w: plan %s line %d: blocks: %v", ErrCompile, pl.Name, st.Line, err)
			}
			if _, err := env.Host.Launch(prog, int(blocks)); err != nil {
				return nil, fmt.Errorf("plan %s line %d: %w", pl.Name, st.Line, err)
			}

		case *SyncStmt:
			env.Host.EndRound()
		}
	}
	return res, nil
}

// evalPlanExpr folds a plan-level expression via the resolver. Shared and
// global indexing are kernel-only and rejected here.
func evalPlanExpr(e Expr, resolve func(string) (int64, bool)) (int64, error) {
	switch e := e.(type) {
	case *NumExpr:
		return e.Val, nil
	case *IdentExpr:
		if v, ok := resolve(e.Name); ok {
			return v, nil
		}
		return 0, fmt.Errorf("undefined name %q", e.Name)
	case *BinExpr:
		l, err := evalPlanExpr(e.L, resolve)
		if err != nil {
			return 0, err
		}
		r, err := evalPlanExpr(e.R, resolve)
		if err != nil {
			return 0, err
		}
		return fold(e.Op, l, r)
	case *CallExpr:
		if len(e.Args) != 2 {
			return 0, fmt.Errorf("%s expects 2 arguments", e.Fn)
		}
		l, err := evalPlanExpr(e.Args[0], resolve)
		if err != nil {
			return 0, err
		}
		r, err := evalPlanExpr(e.Args[1], resolve)
		if err != nil {
			return 0, err
		}
		return foldCall(e.Fn, l, r), nil
	case *SharedIndexExpr, *GlobalIndexExpr:
		return 0, fmt.Errorf("memory indexing is kernel-only, not allowed in plans")
	}
	return 0, fmt.Errorf("unhandled plan expression %T", e)
}
