package main

import (
	"encoding/json"
	"fmt"
	"os"

	"atgpu"
	"atgpu/internal/analyze"
	"atgpu/internal/experiments"
	"atgpu/internal/pseudocode"
)

// lintCmd statically analyses kernels without running them: either one
// built-in workload (via -alg/-n) or a list of pseudocode files, whose
// `#! lint:` directives supply block count and parameter bindings. Reports
// go to stdout (or -o) as text or, with -json, as a JSON array. Returns an
// error — exiting non-zero — when any kernel carries error-severity
// findings.
func lintCmd(files []string, alg string, n, blocksFlag int, jsonOut bool, outPath string, opts atgpu.Options) error {
	// Calibrate once so every report carries the Expression (1)/(2) cost
	// estimate alongside the findings.
	sys, err := atgpu.NewSystem(opts)
	if err != nil {
		return err
	}
	cp := sys.CostParams()

	var names []string
	var reports []*analyze.Report
	if len(files) == 0 {
		w, err := experiments.Lookup(alg)
		if err != nil {
			return err
		}
		rep, err := w.Lint(n, opts.Device, cp)
		if err != nil {
			return err
		}
		names = append(names, fmt.Sprintf("%s n=%d", alg, n))
		reports = append(reports, rep)
	}
	for _, path := range files {
		m := analyze.FromConfig(opts.Device)
		rep, err := lintFile(path, blocksFlag, m, cp)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		names = append(names, path)
		reports = append(reports, rep)
	}

	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if jsonOut {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if _, err := out.Write(data); err != nil {
			return err
		}
	} else {
		for i, rep := range reports {
			fmt.Fprintf(out, "== %s ==\n%s", names[i], rep.Text())
		}
	}

	errors := 0
	for _, rep := range reports {
		errors += rep.ErrorCount()
	}
	if errors > 0 {
		return fmt.Errorf("lint: %d error finding(s) across %d kernel(s)", errors, len(reports))
	}
	return nil
}

// lintFile compiles one pseudocode file per its `#! lint:` directives and
// analyses it. The width directive overrides the device's warp width (the
// machine is narrowed to match); blocksFlag, when positive, overrides the
// blocks directive.
func lintFile(path string, blocksFlag int, m analyze.Machine, cp analyze.CostParams) (*analyze.Report, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dir, err := pseudocode.Directives(string(src))
	if err != nil {
		return nil, err
	}
	width := m.Width
	blocks := 1
	params := make(map[string]int64)
	for k, v := range dir {
		switch k {
		case "blocks":
			blocks = int(v)
		case "width":
			width = int(v)
		default:
			params[k] = v
		}
	}
	if blocksFlag > 0 {
		blocks = blocksFlag
	}
	prog, err := pseudocode.CompileSource(string(src), width, params)
	if err != nil {
		return nil, err
	}
	m.Width = width
	return analyze.Program(prog, analyze.Options{Machine: m, Blocks: blocks, Cost: &cp})
}
