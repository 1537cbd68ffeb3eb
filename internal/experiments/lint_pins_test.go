package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"atgpu/internal/analyze"
	"atgpu/internal/core"
	"atgpu/internal/pseudocode"
	"atgpu/internal/simgpu"
)

// lintPinSizes are the sizes each registry workload is linted at: two or
// three per workload, with a ragged vecadd (n not a multiple of the warp
// width), the CI lint steps' vecadd/reduce n=100000 and matmul n=96.
var lintPinSizes = map[string][]int{
	"vecadd":         {1000, 4096, 100_000},
	"reduce":         {4096, 100_000},
	"matmul":         {32, 64, 96},
	"scan":           {4096, 16384},
	"histogram":      {1024, 4096},
	"histogram-priv": {1024, 4096},
	"compact":        {1024, 4096},
	"topk":           {1024, 4096},
	"montecarlo":     {256, 1024},
}

// lintPinFiles are the pseudocode kernels linted under each preset, as
// `atgpu lint <file>` does.
var lintPinFiles = []string{
	"../analyze/testdata/*.pseudo",
	"../../examples/pseudocode/*.pseudo",
}

// lintPinCost prices every pinned report. The static counters and findings
// do not depend on it; fixed values keep the pins free of calibration.
func lintPinCost(dev simgpu.Config) core.CostParams {
	return core.CostParams{Gamma: 1e9, Lambda: 500, Sigma: 1e-5, Alpha: 1e-5, Beta: 1e-9,
		KPrime: dev.NumSMs, H: dev.MaxBlocksPerSM}
}

// lintPinFile compiles one pseudocode file per its `#! lint:` directives
// and analyses it on dev, as the CLI's lint does.
func lintPinFile(path string, dev simgpu.Config, cp core.CostParams) (*analyze.Report, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dir, err := pseudocode.Directives(string(src))
	if err != nil {
		return nil, err
	}
	m := analyze.FromConfig(dev)
	blocks := 1
	params := make(map[string]int64)
	for k, v := range dir {
		switch k {
		case "blocks":
			blocks = int(v)
		case "width":
			m.Width = int(v)
		default:
			params[k] = v
		}
	}
	prog, err := pseudocode.CompileSource(string(src), m.Width, params)
	if err != nil {
		return nil, err
	}
	return analyze.Program(prog, analyze.Options{Machine: m, Blocks: blocks, Cost: &cp})
}

// TestLintPins pins the FNV-1a of the JSON lint report of every registry
// workload at lintPinSizes and of every pseudocode kernel, on each device
// preset, so a change to the static analyzer cannot silently move a
// verdict, counter, site or cost estimate. A lint that fails pins its
// error text instead. Regenerate with -update-pins only for an intended
// analyzer change.
func TestLintPins(t *testing.T) {
	devs := append(simgpu.Presets(), simgpu.Tiny())
	got := map[string]string{}
	pin := func(key string, rep *analyze.Report, err error) {
		h := fnv.New64a()
		if err != nil {
			fmt.Fprintf(h, "error: %v", err)
		} else {
			raw, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(raw)
		}
		got[key] = fmt.Sprintf("%016x", h.Sum64())
	}
	var files []string
	for _, pat := range lintPinFiles {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatal("no pseudocode files found")
	}
	for _, dev := range devs {
		cp := lintPinCost(dev)
		for _, w := range Workloads() {
			sizes, ok := lintPinSizes[w.Name]
			if !ok {
				t.Fatalf("%s: no lint pin sizes", w.Name)
			}
			for _, n := range sizes {
				rep, err := w.Lint(n, dev, cp)
				pin(fmt.Sprintf("%s/%s/n=%d", dev.Name, w.Name, n), rep, err)
			}
		}
		for _, f := range files {
			rep, err := lintPinFile(f, dev, cp)
			pin(fmt.Sprintf("%s/%s", dev.Name, strings.TrimLeft(filepath.ToSlash(f), "./")), rep, err)
		}
	}

	path := filepath.Join("testdata", "lint_pins.json")
	if *updatePins {
		raw, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("pinned %d reports, linted %d", len(want), len(got))
	}
	for key, h := range want {
		if got[key] != h {
			t.Errorf("%s: report hash %s, pinned %s", key, got[key], h)
		}
	}
}
