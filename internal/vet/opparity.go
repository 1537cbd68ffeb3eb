package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// The opparity pass guards the one dispatch that still covers opcodes by
// switch: every opcode declared in internal/kernel must be handled by the
// static analyzer's transfer functions. An opcode added to the IR but
// missed there is a silently wrong prediction that no compile error
// catches, since Go switches have no exhaustiveness check. The simulator
// needs no such pass: its compute opcodes run through the kernel package's
// semantics table, whose init check rejects an unclassified opcode.
//
// The pass is cross-file, so unlike the single-file passes it accumulates
// state: feed it every non-test file via AddFile, then read Diagnostics.
// Opcode collection is syntactic — exported Op* constants declared in
// internal/kernel — and coverage is a mention of the constant (through the
// kernel import, any local name) anywhere in the arena file. A mention is
// accepted anywhere in the file rather than only in case clauses so that
// grouped cases, table entries and helper calls all count; the point is
// catching the opcode nobody thought about, not policing how a file
// organises its dispatch.

// opArena is the file ("importPath/basename") that must mention every
// opcode, and opArenaName how diagnostics describe it.
const (
	opArena     = "atgpu/internal/analyze/interp.go"
	opArenaName = "analyzer transfer functions (internal/analyze/interp.go)"
)

// kernelImportPath is where the opcode universe is declared.
const kernelImportPath = "atgpu/internal/kernel"

// OpParity accumulates opcode declarations and arena mentions across files.
// Zero value is not ready; use NewOpParity.
type OpParity struct {
	// universe maps opcode name to its declaration position.
	universe map[string]token.Position
	// mentions holds the opcode names the arena file mentions; nil until
	// the arena file is seen.
	mentions map[string]bool
}

// NewOpParity returns an empty accumulator.
func NewOpParity() *OpParity {
	return &OpParity{universe: make(map[string]token.Position)}
}

// isOpName reports whether a constant name is an exported opcode: "Op"
// followed by an upper-case letter. The opCount sentinel stays out.
func isOpName(name string) bool {
	return len(name) > 2 && strings.HasPrefix(name, "Op") &&
		name[2] >= 'A' && name[2] <= 'Z'
}

// AddFile feeds one parsed file into the accumulator. Kernel-package files
// contribute opcode declarations; arena files contribute mentions; all other
// files are ignored.
func (p *OpParity) AddFile(fset *token.FileSet, f *ast.File, importPath string) {
	if importPath == kernelImportPath {
		p.addUniverse(fset, f)
		return
	}
	if importPath+"/"+filepath.Base(fset.Position(f.Pos()).Filename) != opArena {
		return
	}
	if p.mentions == nil {
		p.mentions = make(map[string]bool)
	}
	kernelName := importName(f, kernelImportPath)
	if kernelName == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if ok && id.Name == kernelName && isOpName(sel.Sel.Name) {
			p.mentions[sel.Sel.Name] = true
		}
		return true
	})
}

// addUniverse collects exported Op* constants declared in a kernel file.
func (p *OpParity) addUniverse(fset *token.FileSet, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if isOpName(name.Name) {
					p.universe[name.Name] = fset.Position(name.Pos())
				}
			}
		}
	}
}

// Diagnostics reports every opcode the arena file does not mention. A
// sweep that never fed the arena file produces no findings, so partial
// sweeps (a single-directory atgpu-vet run) do not false-positive on files
// outside the sweep.
func (p *OpParity) Diagnostics() []Diagnostic {
	if p.mentions == nil {
		return nil
	}
	ops := make([]string, 0, len(p.universe))
	for op := range p.universe {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var ds []Diagnostic
	for _, op := range ops {
		if p.mentions[op] {
			continue
		}
		ds = append(ds, Diagnostic{
			Pos:  p.universe[op],
			Pass: "opparity",
			Msg: fmt.Sprintf("kernel.%s has no handler in the %s; the analyzer must cover every opcode",
				op, opArenaName),
		})
	}
	return ds
}
