package atgpu

// End-to-end tests of the command-line tools: each binary is built once
// into a temp dir and driven through its main subcommands, checking output
// markers rather than exact text.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"atgpu/internal/service"
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

	// ooc prints through run -pipeline's printer: the one-stream serial
	// and two-stream overlapped schedules of the reduce split, then the
	// model's prediction.
	out = runTool(t, bin, "ooc", "-n", "65536", "-chunk", "8192")
	for _, want := range []string{"n=65536 chunk=8192 (8 chunks", "verified against CPU reference",
		"sequential schedule", "pipelined schedule", "observed saving", "predicted:"} {
		if !strings.Contains(out, want) {
			t.Errorf("ooc output missing %q:\n%s", want, out)
		}
	}
	// A faulted ooc shows its recovery; one that exhausts it fails.
	out = runTool(t, bin, "ooc", "-n", "65536", "-chunk", "4096", "-fault-rate", "0.3", "-fault-seed", "1")
	for _, want := range []string{"(16 chunks", "resilience:", "predicted:"} {
		if !strings.Contains(out, want) {
			t.Errorf("faulted ooc output missing %q:\n%s", want, out)
		}
	}
	for _, args := range [][]string{
		{"-n", "65536", "-chunk", "4096", "-fault-rate", "0.3", "-fault-seed", "1", "-max-retries", "1"},
		{"-n", "0", "-chunk", "4"},
	} {
		failed, err := exec.Command(bin, append([]string{"ooc"}, args...)...).CombinedOutput()
		if err == nil {
			t.Errorf("ooc %v exited 0:\n%s", args, failed)
		}
	}

	// dash writes the Grafana dashboard and checks it against a real
	// atgpud exposition; a missing always-exported family fails the check.
	dash := filepath.Join(dir, "dashboard.json")
	runTool(t, bin, "dash", "-o", dash)
	if raw, err := os.ReadFile(dash); err != nil || !json.Valid(raw) {
		t.Errorf("dash -o wrote invalid JSON (err %v)", err)
	}
	srv, err := service.NewServer(service.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	live := httptest.NewServer(srv.Handler())
	defer live.Close()
	runTool(t, bin, "dash", "-o", dash, "-check-metrics", live.URL+"/metrics")
	resp, err := http.Get(live.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(string(exposition), "\n") {
		if !strings.Contains(line, service.MetricQueueDepth) {
			kept = append(kept, line)
		}
	}
	partial := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, strings.Join(kept, ""))
	}))
	defer partial.Close()
	failed, err := exec.Command(bin, "dash", "-o", dash, "-check-metrics", partial.URL).CombinedOutput()
	if err == nil || !strings.Contains(string(failed), service.MetricQueueDepth) {
		t.Errorf("dash -check-metrics passed without %s (err %v):\n%s", service.MetricQueueDepth, err, failed)
	}

	// Unknown command exits non-zero.
	if err := exec.Command(bin, "nonsense").Run(); err == nil {
		t.Error("unknown command should fail")
	}
}

// TestCmdAtgpuRun drives `atgpu run` as the simulator's front end: the
// observed time split and kernel statistics, any registry entry, any
// device preset, and the kernel disassembly.
func TestCmdAtgpuRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "atgpu")

	out := runTool(t, bin, "run", "-alg", "reduce", "-n", "10000")
	for _, want := range []string{"kernel=", "transfer=", "total=", "global: accesses"} {
		if !strings.Contains(out, want) {
			t.Errorf("run -alg reduce output missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, bin, "run", "-alg", "vecadd", "-n", "128", "-device", "tiny", "-disasm")
	for _, want := range []string{"ld.global", "on sim-tiny", "verified against CPU reference", "global: accesses"} {
		if !strings.Contains(out, want) {
			t.Errorf("run -device tiny -disasm output missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, bin, "run", "-alg", "histogram", "-n", "4096")
	for _, want := range []string{"histogram n=4096 (verified against CPU reference)", "rounds=", "kernel stats"} {
		if !strings.Contains(out, want) {
			t.Errorf("run -alg histogram output missing %q:\n%s", want, out)
		}
	}

	// A pipelined run reports each schedule like a plain run, the
	// fault-recovery block included.
	out = runTool(t, bin, "run", "-alg", "vecadd", "-n", "1024", "-device", "tiny", "-pipeline",
		"-fault-rate", "0.3", "-fault-seed", "1")
	for _, want := range []string{"sequential schedule: total=", "pipelined schedule:  total=",
		"resilience: 1 retries", "watchdog fires", "fault #"} {
		if !strings.Contains(out, want) {
			t.Errorf("run -pipeline with faults output missing %q:\n%s", want, out)
		}
	}

	if err := exec.Command(bin, "run", "-device", "nonsense").Run(); err == nil {
		t.Error("unknown device should fail")
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
