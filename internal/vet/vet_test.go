package vet

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// checkSrc parses src and runs CheckFile as if it lived in importPath.
func checkSrc(t *testing.T, importPath, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return CheckFile(fset, f, importPath)
}

// wantDiags asserts the diagnostics hit exactly the given (pass, line)
// pairs, in order.
func wantDiags(t *testing.T, ds []Diagnostic, want ...[2]interface{}) {
	t.Helper()
	if len(ds) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(ds), len(want), ds)
	}
	for i, w := range want {
		if ds[i].Pass != w[0].(string) || ds[i].Pos.Line != w[1].(int) {
			t.Errorf("diagnostic %d = %s at line %d, want %s at line %d",
				i, ds[i].Pass, ds[i].Pos.Line, w[0], w[1])
		}
	}
}

func TestNoTimeFlagsWallClock(t *testing.T) {
	src := `package simgpu

import "time"

func bad() time.Time { return time.Now() }

func alsoBad(start time.Time) time.Duration { return time.Since(start) }

func fine() time.Duration { return 3 * time.Second }
`
	ds := checkSrc(t, "atgpu/internal/simgpu", src)
	wantDiags(t, ds, [2]interface{}{"notime", 5}, [2]interface{}{"notime", 7})
}

func TestNoTimeFlagsGlobalRand(t *testing.T) {
	src := `package transfer

import "math/rand"

func bad() int { return rand.Intn(10) }

func fine() *rand.Rand { return rand.New(rand.NewSource(1)) }

func alsoFine(r *rand.Rand) int { return r.Intn(10) }
`
	ds := checkSrc(t, "atgpu/internal/transfer", src)
	wantDiags(t, ds, [2]interface{}{"notime", 5})
}

func TestNoTimeScopedToDeterministicPackages(t *testing.T) {
	src := `package figures

import (
	"math/rand"
	"time"
)

func allowedHere() (int64, int) { return time.Now().Unix(), rand.Int() }
`
	if ds := checkSrc(t, "atgpu/cmd/atgpu-figures", src); len(ds) != 0 {
		t.Fatalf("non-deterministic package flagged: %v", ds)
	}
}

// The results package holds the canonical record model whose bodies must
// be byte-identical across re-runs, so it sits under the notime contract
// alongside the simulator packages.
func TestNoTimeCoversResultsPackage(t *testing.T) {
	src := `package results

import "time"

func bad() int64 { return time.Now().Unix() }
`
	ds := checkSrc(t, "atgpu/internal/results", src)
	wantDiags(t, ds, [2]interface{}{"notime", 5})
}

func TestNoTimeRespectsImportRename(t *testing.T) {
	src := `package simgpu

import clock "time"

func bad() clock.Time { return clock.Now() }
`
	ds := checkSrc(t, "atgpu/internal/simgpu", src)
	wantDiags(t, ds, [2]interface{}{"notime", 5})
}

func TestMapOrderFlagsDirectPrint(t *testing.T) {
	src := `package any

import "fmt"

func bad(counts map[string]int) {
	for k, v := range counts {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`
	ds := checkSrc(t, "atgpu/internal/obs", src)
	wantDiags(t, ds, [2]interface{}{"maporder", 6})
}

func TestMapOrderFlagsLocalMapIntoBuilder(t *testing.T) {
	src := `package any

import "strings"

func bad() string {
	var sb strings.Builder
	m := make(map[int]string)
	m[1] = "a"
	for _, v := range m {
		sb.WriteString(v)
	}
	return sb.String()
}
`
	ds := checkSrc(t, "atgpu/internal/core", src)
	wantDiags(t, ds, [2]interface{}{"maporder", 9})
}

func TestMapOrderAcceptsSortedKeys(t *testing.T) {
	src := `package any

import (
	"fmt"
	"sort"
)

func fine(counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%d\n", k, counts[k])
	}
}
`
	if ds := checkSrc(t, "atgpu/internal/obs", src); len(ds) != 0 {
		t.Fatalf("sorted-keys pattern flagged: %v", ds)
	}
}

func TestMapOrderAcceptsPureAccumulation(t *testing.T) {
	src := `package any

func fine(counts map[string]int) int {
	total := 0
	for _, v := range counts {
		total += v
	}
	return total
}
`
	if ds := checkSrc(t, "atgpu/internal/simgpu", src); len(ds) != 0 {
		t.Fatalf("order-insensitive accumulation flagged: %v", ds)
	}
}

func TestHotAllocFlagsAppendAndMake(t *testing.T) {
	src := `package simgpu

func (ls *launchState) execFast(w *warp) error {
	buf := make([]int, 8)
	w.pending = append(w.pending, buf[0])
	return nil
}

func replayBlock(w *warp) {
	f := func() { w.scratch = append(w.scratch, 1) }
	f()
}
`
	ds := checkSrc(t, "atgpu/internal/simgpu", src)
	wantDiags(t, ds,
		[2]interface{}{"hotalloc", 4},
		[2]interface{}{"hotalloc", 5},
		[2]interface{}{"hotalloc", 10})
}

func TestHotAllocIgnoresColdFunctions(t *testing.T) {
	src := `package simgpu

func setupLaunch(n int) []int {
	s := make([]int, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, i)
	}
	return s
}

func memoReplay(n int) []int { return make([]int, n) }
`
	if ds := checkSrc(t, "atgpu/internal/simgpu", src); len(ds) != 0 {
		t.Fatalf("cold-path allocation flagged: %v", ds)
	}
}

func TestHotAllocScopedToHotPathPackages(t *testing.T) {
	src := `package analyze

func execPass(n int) []int { return make([]int, n) }
`
	if ds := checkSrc(t, "atgpu/internal/analyze", src); len(ds) != 0 {
		t.Fatalf("non-hot-path package flagged: %v", ds)
	}
}

// TestRepoInvariantsHold runs every pass over this repository's own
// non-test sources, the same sweep CI performs with atgpu-vet, so a
// violation fails here first, with the diagnostic text in the log.
func TestRepoInvariantsHold(t *testing.T) {
	fset := token.NewFileSet()
	root := "../.."
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "results" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		importPath := "atgpu"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		for _, d := range CheckFile(fset, f, importPath) {
			t.Errorf("%s", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGoRecoverFlagsNakedGoroutine(t *testing.T) {
	src := `package service

func bad() {
	go func() {
		work()
	}()
}

func work() {}
`
	ds := checkSrc(t, "atgpu/internal/service", src)
	wantDiags(t, ds, [2]interface{}{"gorecover", 4})
}

func TestGoRecoverFlagsNamedFunction(t *testing.T) {
	src := `package sched

func bad() {
	go work()
}

func work() {}
`
	ds := checkSrc(t, "atgpu/internal/sched", src)
	wantDiags(t, ds, [2]interface{}{"gorecover", 4})
}

func TestGoRecoverAcceptsInlineRecover(t *testing.T) {
	src := `package service

func fine() {
	go func() {
		defer func() { _ = recover() }()
		work()
	}()
}

func work() {}
`
	if ds := checkSrc(t, "atgpu/internal/service", src); len(ds) != 0 {
		t.Fatalf("recover-guarded goroutine flagged: %v", ds)
	}
}

func TestGoRecoverAcceptsProtect(t *testing.T) {
	src := `package service

import "atgpu/internal/sched"

func fine() {
	go func() {
		_ = sched.Protect(func() error { work(); return nil })
	}()
}

func alsoFine() {
	go func() {
		_ = Protect(func() error { work(); return nil })
	}()
}

func work() {}
func Protect(fn func() error) error { return fn() }
`
	if ds := checkSrc(t, "atgpu/internal/service", src); len(ds) != 0 {
		t.Fatalf("Protect-guarded goroutine flagged: %v", ds)
	}
}

func TestGoRecoverScopedToGuardedPackages(t *testing.T) {
	src := `package figures

func allowedHere() {
	go work()
}

func work() {}
`
	if ds := checkSrc(t, "atgpu/cmd/atgpu-figures", src); len(ds) != 0 {
		t.Fatalf("unguarded package flagged: %v", ds)
	}
}

func TestGoRecoverFlagsNestedUnguardedLaunch(t *testing.T) {
	src := `package service

func bad() {
	go func() {
		defer func() { _ = recover() }()
		go func() {
			work()
		}()
	}()
}

func work() {}
`
	ds := checkSrc(t, "atgpu/internal/service", src)
	wantDiags(t, ds, [2]interface{}{"gorecover", 6})
}
