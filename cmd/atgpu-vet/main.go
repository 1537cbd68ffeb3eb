// Command atgpu-vet runs the repo's custom static checks (see
// internal/vet): no wall-clock or global-randomness reads in deterministic
// packages, no map iteration feeding ordered output anywhere, no
// unguarded goroutine launches (missing recover/sched.Protect) in the
// daemon's long-running packages, no append/make allocation in the
// simulator's per-step hot path (exec*/replay* functions).
//
// Usage:
//
//	atgpu-vet [./...]
//
// Arguments are directories or the ./... pattern (the default); every
// non-test .go file under them is checked. Diagnostics print one per line
// as path:line:col: message [pass], and any diagnostic makes the exit
// status 1, so CI can gate on it directly.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"atgpu/internal/vet"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	ds, err := check(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atgpu-vet:", err)
		os.Exit(2)
	}
	for _, d := range ds {
		fmt.Println(d)
	}
	if len(ds) > 0 {
		os.Exit(1)
	}
}

// check expands the arguments into Go files and runs the passes.
func check(args []string) ([]vet.Diagnostic, error) {
	module, root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	files, err := expand(args)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var ds []vet.Diagnostic
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ds = append(ds, vet.CheckFile(fset, f, importPath(module, root, path))...)
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Pos.Filename != ds[j].Pos.Filename {
			return ds[i].Pos.Filename < ds[j].Pos.Filename
		}
		return ds[i].Pos.Offset < ds[j].Pos.Offset
	})
	return ds, nil
}

// moduleRoot finds go.mod upward from the working directory and reads the
// module path, so files map to import paths without build metadata.
func moduleRoot() (module, root string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return strings.TrimSpace(rest), dir, nil
				}
			}
			return "", "", fmt.Errorf("%s: no module line", filepath.Join(dir, "go.mod"))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// importPath derives a file's package import path from its directory.
func importPath(module, root, file string) string {
	dir, err := filepath.Abs(filepath.Dir(file))
	if err != nil {
		return module
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." || strings.HasPrefix(rel, "..") {
		return module
	}
	return module + "/" + filepath.ToSlash(rel)
}

// expand turns the argument list into a sorted list of non-test .go files.
// A trailing /... recurses; a plain directory takes only its own files.
func expand(args []string) ([]string, error) {
	seen := make(map[string]bool)
	var files []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			files = append(files, path)
		}
	}
	for _, arg := range args {
		dir, recurse := strings.CutSuffix(arg, "/...")
		if dir == "" || dir == "." {
			dir = "."
		}
		info, err := os.Stat(dir)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			if wanted(dir) {
				add(dir)
			}
			continue
		}
		if !recurse {
			entries, err := os.ReadDir(dir)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				if !e.IsDir() && wanted(e.Name()) {
					add(filepath.Join(dir, e.Name()))
				}
			}
			continue
		}
		err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || name == "results" || strings.HasPrefix(name, ".") && path != dir {
					return filepath.SkipDir
				}
				return nil
			}
			if wanted(d.Name()) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}

// wanted reports whether a file name is a non-test Go source file.
func wanted(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}
