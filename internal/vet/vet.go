// Package vet implements the repo's custom static checks, run by
// cmd/atgpu-vet next to the standard toolchain linters. Five invariants
// are enforced. The first two guard the determinism contract the
// simulator, sweeps and goldens rely on (sweep output must be
// byte-identical for any worker count, and simulated time must never
// observe the wall clock); the third guards the daemon's survival
// contract (a panic in a worker must become a failed job, never a dead
// process); the fourth guards the simulator's per-instruction hot path
// (zero allocation per simulated step); the fifth (opparity, see
// opparity.go) guards the analyzer's opcode coverage — every opcode
// declared in internal/kernel must be handled by its transfer functions:
//
//   - notime: deterministic packages (timeline, simgpu, transfer,
//     experiments, results) must not read the wall clock (time.Now,
//     time.Since, time.Until) or draw from math/rand's global source.
//     Explicitly seeded generators — rand.New(rand.NewSource(seed)) —
//     stay legal. For results this is what keeps record bodies
//     byte-identical across re-runs: wall-clock only enters through the
//     Env envelope its callers stamp at persist time.
//
//   - maporder: no package may feed output directly from a map iteration
//     (printing, writer or hash calls inside a range over a map); keys
//     must be collected and sorted first, since Go randomises map order.
//
//   - gorecover: in the long-running packages (sched, service) every go
//     statement must launch a function literal whose body visibly
//     contains a recover() call or routes through sched.Protect; naked
//     goroutines would take the whole daemon down on a panic.
//
//   - hotalloc: in the simulator package the interpreter's hot-path
//     functions (exec* and replay*) must not call append or make. These
//     run once per warp step — billions of times per sweep — so even a
//     byte of garbage per call dominates the profile; anything they need
//     must be preallocated at launch setup.
//
//   - opparity: every kernel.Op* constant must be mentioned by the
//     analyzer's abstract interpreter (analyze/interp.go). Go switches
//     are not exhaustive, so a new opcode missed there compiles cleanly
//     and mispredicts silently. The simulator's compute opcodes run
//     through the kernel semantics table, whose init check covers them.
//
// The checks are syntactic: they parse with go/parser only, so they run
// without build metadata and never depend on non-stdlib analysis
// machinery. Map detection is therefore local — range expressions whose
// map-ness is visible in the same file (map literals, make(map...),
// declarations and parameters) — which is exactly the set of cases the
// repo's style produces.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// DeterministicPackages lists the import paths whose non-test files must
// not observe wall-clock time or the global math/rand source.
var DeterministicPackages = []string{
	"atgpu/internal/timeline",
	"atgpu/internal/simgpu",
	"atgpu/internal/transfer",
	"atgpu/internal/experiments",
	"atgpu/internal/results",
}

// RecoverGuardedPackages lists the import paths whose goroutines must be
// panic-guarded: these packages host the daemon's long-lived workers,
// where an unrecovered panic kills the process instead of one job.
var RecoverGuardedPackages = []string{
	"atgpu/internal/sched",
	"atgpu/internal/service",
}

// HotPathPackages lists the import paths whose exec*/replay* functions
// form the simulator's per-step hot path and must stay allocation-free.
var HotPathPackages = []string{
	"atgpu/internal/simgpu",
}

// Diagnostic is one finding: where, which pass, and what.
type Diagnostic struct {
	Pos  token.Position
	Pass string
	Msg  string
}

// String renders "path:line:col: msg [pass]".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Msg, d.Pass)
}

// IsDeterministic reports whether importPath is under the notime contract.
func IsDeterministic(importPath string) bool {
	for _, p := range DeterministicPackages {
		if importPath == p {
			return true
		}
	}
	return false
}

// IsRecoverGuarded reports whether importPath is under the gorecover
// contract.
func IsRecoverGuarded(importPath string) bool {
	for _, p := range RecoverGuardedPackages {
		if importPath == p {
			return true
		}
	}
	return false
}

// IsHotPath reports whether importPath is under the hotalloc contract.
func IsHotPath(importPath string) bool {
	for _, p := range HotPathPackages {
		if importPath == p {
			return true
		}
	}
	return false
}

// CheckFile runs every applicable pass over one parsed file. Test files are
// the caller's concern (cmd/atgpu-vet skips them: tests may use the clock
// for timeouts and scratch randomness).
func CheckFile(fset *token.FileSet, f *ast.File, importPath string) []Diagnostic {
	var ds []Diagnostic
	if IsDeterministic(importPath) {
		ds = append(ds, checkNoTime(fset, f)...)
	}
	if IsRecoverGuarded(importPath) {
		ds = append(ds, checkGoRecover(fset, f)...)
	}
	if IsHotPath(importPath) {
		ds = append(ds, checkHotAlloc(fset, f)...)
	}
	ds = append(ds, checkMapOrder(fset, f)...)
	return ds
}

// importName resolves the local name an import path is bound to in f, or ""
// when the file does not import it. A dot or blank import returns "".
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "." || imp.Name.Name == "_" {
				return ""
			}
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// randAllowed are the math/rand package-level names that carry an explicit
// seed or are plain types — everything else draws from the global source.
var randAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"Rand":      true,
	"Source":    true,
	"Source64":  true,
	"Zipf":      true,
}

// wallClock are the time package functions that read the wall clock.
var wallClock = map[string]bool{"Now": true, "Since": true, "Until": true}

// checkNoTime flags wall-clock reads and global-source randomness.
func checkNoTime(fset *token.FileSet, f *ast.File) []Diagnostic {
	timeName := importName(f, "time")
	randName := importName(f, "math/rand")
	if timeName == "" && randName == "" {
		return nil
	}
	var ds []Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		switch {
		case timeName != "" && id.Name == timeName && wallClock[sel.Sel.Name]:
			ds = append(ds, Diagnostic{
				Pos:  fset.Position(sel.Pos()),
				Pass: "notime",
				Msg: fmt.Sprintf("%s.%s reads the wall clock in a deterministic package; use the simulated timeline",
					timeName, sel.Sel.Name),
			})
		case randName != "" && id.Name == randName && !randAllowed[sel.Sel.Name]:
			ds = append(ds, Diagnostic{
				Pos:  fset.Position(sel.Pos()),
				Pass: "notime",
				Msg: fmt.Sprintf("%s.%s uses math/rand's global source in a deterministic package; seed a local rand.New(rand.NewSource(seed))",
					randName, sel.Sel.Name),
			})
		}
		return true
	})
	return ds
}

// checkGoRecover flags unguarded goroutine launches. The guard must be
// lexically visible inside the launched function literal: either a
// recover() call (typically in a deferred closure) or a call to Protect /
// sched.Protect, which recovers internally. A go statement on a named
// function is flagged outright — the checker is syntactic and cannot see
// into the callee, so the guard must sit in a literal at the launch site.
func checkGoRecover(fset *token.FileSet, f *ast.File) []Diagnostic {
	var ds []Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			ds = append(ds, Diagnostic{
				Pos:  fset.Position(gs.Pos()),
				Pass: "gorecover",
				Msg:  "go statement launches a named function; launch a function literal that defers recover() or wraps the work in sched.Protect",
			})
			return true
		}
		if !guardsPanics(lit.Body) {
			ds = append(ds, Diagnostic{
				Pos:  fset.Position(gs.Pos()),
				Pass: "gorecover",
				Msg:  "goroutine body has no recover() and no sched.Protect call; a panic here kills the daemon instead of failing one job",
			})
		}
		return true
	})
	return ds
}

// guardsPanics reports whether the block lexically contains a recover()
// call or a Protect / sched.Protect call.
func guardsPanics(body *ast.BlockStmt) bool {
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "recover" || fun.Name == "Protect" {
				guarded = true
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Protect" {
				guarded = true
			}
		}
		return !guarded
	})
	return guarded
}

// checkHotAlloc flags append and make calls inside the interpreter's
// hot-path functions — those named exec* or replay* (methods included).
// These run once per warp step; allocating there turns the simulator's
// inner loop into a garbage-collection benchmark. The check is lexical:
// an allocation anywhere inside the function body is flagged, including
// inside function literals, since those run on the same path.
func checkHotAlloc(fset *token.FileSet, f *ast.File) []Diagnostic {
	var ds []Diagnostic
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !isHotPathFunc(fn.Name.Name) {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || (id.Name != "append" && id.Name != "make") {
				return true
			}
			ds = append(ds, Diagnostic{
				Pos:  fset.Position(call.Pos()),
				Pass: "hotalloc",
				Msg: fmt.Sprintf("%s called in hot-path function %s; the per-step interpreter must not allocate — preallocate in launch setup",
					id.Name, fn.Name.Name),
			})
			return true
		})
	}
	return ds
}

// isHotPathFunc reports whether a function name is under the hotalloc
// contract: the exec* interpreter dispatch family and the replay* memo
// replay family.
func isHotPathFunc(name string) bool {
	return strings.HasPrefix(name, "exec") || strings.HasPrefix(name, "replay")
}

// outputCalls are callee names that commit bytes in call order: printing,
// writer methods, and hashing. A range over a map reaching one of these
// emits in randomised order.
var outputCalls = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Sum": true, "Sum64": true, "Sum32": true,
}

// checkMapOrder flags map iterations whose body feeds ordered output.
func checkMapOrder(fset *token.FileSet, f *ast.File) []Diagnostic {
	var ds []Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			return true
		}
		maps := mapIdents(f, fn)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapExpr(rs.X, maps) {
				return true
			}
			if call, name := firstOutputCall(rs.Body); call != nil {
				ds = append(ds, Diagnostic{
					Pos:  fset.Position(rs.Pos()),
					Pass: "maporder",
					Msg: fmt.Sprintf("map iteration feeds ordered output (%s at line %d); collect and sort the keys first",
						name, fset.Position(call.Pos()).Line),
				})
			}
			return true
		})
		return true
	})
	return ds
}

// mapIdents collects names visibly bound to map values: package-level and
// function-local declarations, assignments from map literals or make, and
// map-typed parameters. Struct fields and call results are out of reach —
// the checker stays local to what the file shows.
func mapIdents(f *ast.File, fn *ast.FuncDecl) map[string]bool {
	maps := make(map[string]bool)
	bind := func(names []*ast.Ident, typ ast.Expr, values []ast.Expr) {
		for i, name := range names {
			isMap := false
			if typ != nil {
				_, isMap = typ.(*ast.MapType)
			}
			if !isMap && i < len(values) {
				isMap = isMapValue(values[i])
			}
			if isMap {
				maps[name.Name] = true
			}
		}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				bind(vs.Names, vs.Type, vs.Values)
			}
		}
	}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if _, ok := field.Type.(*ast.MapType); ok {
				for _, name := range field.Names {
					maps[name.Name] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(s.Rhs) {
					continue
				}
				if isMapValue(s.Rhs[i]) {
					maps[id.Name] = true
				}
			}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						bind(vs.Names, vs.Type, vs.Values)
					}
				}
			}
		}
		return true
	})
	return maps
}

// isMapValue reports whether e is syntactically a map value: a map literal
// or a make(map[...]...) call.
func isMapValue(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		_, ok := v.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
			_, ok := v.Args[0].(*ast.MapType)
			return ok
		}
	}
	return false
}

// isMapExpr reports whether the range expression is visibly a map.
func isMapExpr(e ast.Expr, maps map[string]bool) bool {
	if isMapValue(e) {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && maps[id.Name]
}

// firstOutputCall returns the first output-committing call in the block.
func firstOutputCall(body *ast.BlockStmt) (*ast.CallExpr, string) {
	var found *ast.CallExpr
	var name string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && outputCalls[sel.Sel.Name] {
			found, name = call, sel.Sel.Name
			return false
		}
		return true
	})
	return found, name
}
