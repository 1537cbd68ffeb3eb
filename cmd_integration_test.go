package atgpu

// End-to-end tests of the command-line tools: each binary is built once
// into a temp dir and driven through its main subcommands, checking output
// markers rather than exact text.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles ./cmd/<name> into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCmdAtgpu(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "atgpu")

	out := runTool(t, bin, "table1")
	for _, want := range []string{"ATGPU", "Host/Device Data Transfer"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, bin, "calibrate")
	for _, want := range []string{"gamma", "lambda", "alpha", "beta"} {
		if !strings.Contains(out, want) {
			t.Errorf("calibrate output missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, bin, "analyze", "-alg", "reduce", "-n", "100000")
	for _, want := range []string{"rounds R", "GPU-cost", "SWGPU", "ΔT"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}

	// analyze takes every registry entry, the atomic workloads included.
	out = runTool(t, bin, "analyze", "-alg", "histogram", "-n", "4096")
	for _, want := range []string{"histogram on", "GPU-cost", "SWGPU", "ΔT"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze -alg histogram output missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, bin, "run", "-alg", "vecadd", "-n", "50000")
	for _, want := range []string{"verified against CPU reference", "observed:", "predicted:", "ΔE"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, bin, "ooc", "-n", "65536", "-chunk", "8192")
	for _, want := range []string{"serial schedule", "overlapped schedule", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("ooc output missing %q:\n%s", want, out)
		}
	}

	// Unknown command exits non-zero.
	if err := exec.Command(bin, "nonsense").Run(); err == nil {
		t.Error("unknown command should fail")
	}
}

func TestCmdSimgpu(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "simgpu")

	out := runTool(t, bin, "-kernel", "reduce", "-n", "10000")
	for _, want := range []string{"kernel time", "transfer time", "total time", "global: accesses"} {
		if !strings.Contains(out, want) {
			t.Errorf("simgpu output missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, bin, "-kernel", "vecadd", "-n", "128", "-device", "tiny", "-disasm")
	if !strings.Contains(out, "ld.global") {
		t.Errorf("disassembly missing:\n%s", out)
	}
}

func TestCmdFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "atgpu-figures")

	out := runTool(t, bin, "-fig", "1")
	if !strings.Contains(out, "Table I") {
		t.Errorf("fig 1 output missing Table I:\n%s", out)
	}

	// A reduced fig-3 run with CSV output.
	csvDir := filepath.Join(dir, "csv")
	out = runTool(t, bin, "-fig", "3", "-out", csvDir)
	for _, want := range []string{"fig3a", "vecadd", "ΔE", "slope ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig 3 output missing %q", want)
		}
	}
	for _, f := range []string{"fig3a.csv", "fig3b.csv", "fig3c.csv"} {
		data, err := os.ReadFile(filepath.Join(csvDir, f))
		if err != nil {
			t.Errorf("missing CSV %s: %v", f, err)
			continue
		}
		if !strings.HasPrefix(string(data), "n,") {
			t.Errorf("%s: bad header: %q", f, string(data[:20]))
		}
	}
}
