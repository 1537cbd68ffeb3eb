package results

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	b, ok := ParseBenchLine("BenchmarkSweepWorkers/workers=4-8   \t5\t 238217412 ns/op")
	if !ok || b.Name != "BenchmarkSweepWorkers/workers=4" || b.Procs != 8 ||
		b.Runs != 5 || b.NsOp != 238217412 {
		t.Fatalf("parsed = %+v ok=%v", b, ok)
	}

	mem, ok := ParseBenchLine("BenchmarkObsOff-2  1000000  1043 ns/op  0 B/op  0 allocs/op")
	if !ok || mem.BytesOp == nil || *mem.BytesOp != 0 || mem.AllocsOp == nil || *mem.AllocsOp != 0 {
		t.Fatalf("benchmem zeros lost: %+v", mem)
	}

	// Metrics a benchmark reports itself sit between ns/op and B/op.
	extra, ok := ParseBenchLine("BenchmarkSweepMatMul-2  2  93214567 ns/op  56.00 memo-elided/op  1234567 sim-cycles/op  890123 warp-instrs/op  7654321 B/op  4321 allocs/op")
	if !ok || extra.Name != "BenchmarkSweepMatMul" || extra.Procs != 2 || extra.Runs != 2 || extra.NsOp != 93214567 ||
		extra.BytesOp == nil || *extra.BytesOp != 7654321 || extra.AllocsOp == nil || *extra.AllocsOp != 4321 {
		t.Fatalf("line with extra metrics parsed = %+v ok=%v", extra, ok)
	}

	for _, bad := range []string{"", "PASS", "ok  \tatgpu\t1.2s", "Benchmark nope"} {
		if _, ok := ParseBenchLine(bad); ok {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestParseBenchText(t *testing.T) {
	out := `goos: linux
BenchmarkA-4   10   1000 ns/op
BenchmarkB-4   20   2000 ns/op
PASS
`
	results, err := ParseBenchText(strings.NewReader(out))
	if err != nil || len(results) != 2 || results[0].Name != "BenchmarkA" || results[1].NsOp != 2000 {
		t.Fatalf("parsed = %+v (err %v)", results, err)
	}
}

func TestParseBenchFileShapes(t *testing.T) {
	dir := t.TempDir()

	arr := filepath.Join(dir, "bench.json")
	os.WriteFile(arr, []byte(`[{"name":"BenchmarkA","procs":4,"runs":10,"ns_per_op":1000}]`), 0o644)
	got, err := ParseBenchFile(arr)
	if err != nil || len(got) != 1 || got[0].Name != "BenchmarkA" {
		t.Fatalf("array shape = %+v (err %v)", got, err)
	}

	load := filepath.Join(dir, "load.json")
	os.WriteFile(load, []byte(`{"mode":"sustained","levels":[{"c":1,"p50_ms":12.5},{"c":8,"p50_ms":30}]}`), 0o644)
	got, err = ParseBenchFile(load)
	if err != nil || len(got) != 2 || got[0].Name != "ServiceP50/c=1" || got[0].NsOp != 12.5e6 {
		t.Fatalf("load shape = %+v (err %v)", got, err)
	}

	junk := filepath.Join(dir, "junk.json")
	os.WriteFile(junk, []byte(`"what"`), 0o644)
	if _, err := ParseBenchFile(junk); err == nil {
		t.Fatal("junk accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, nil, 0o644)
	if got, err := ParseBenchFile(empty); err != nil || got != nil {
		t.Fatalf("empty file = %+v (err %v)", got, err)
	}
}

func TestGate(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "trajectory.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := []BenchResult{
		{Name: "BenchmarkTight", Runs: 10, NsOp: 1000},
		{Name: "BenchmarkLoose", Runs: 10, NsOp: 1000},
	}
	if err := s.Append(base[0].Record("seed", 0), nil); err != nil {
		t.Fatal(err)
	}
	// The loose bench carries its own 100% allowance.
	if err := s.Append(base[1].Record("seed", 1.0), nil); err != nil {
		t.Fatal(err)
	}

	// Within limits: nothing regresses.
	fresh := []BenchResult{
		{Name: "BenchmarkTight", Runs: 10, NsOp: 1100},
		{Name: "BenchmarkLoose", Runs: 10, NsOp: 1900},
		{Name: "BenchmarkNew", Runs: 10, NsOp: 5000}, // no history: passes
	}
	if regs := Gate(s, fresh, 0.15); len(regs) != 0 {
		t.Fatalf("clean gate flagged %+v", regs)
	}

	// Past the default limit on the tight bench.
	fresh[0].NsOp = 1300
	regs := Gate(s, fresh, 0.15)
	if len(regs) != 1 || regs[0].Name != "BenchmarkTight" || regs[0].Limit != 0.15 {
		t.Fatalf("gate = %+v, want one BenchmarkTight regression", regs)
	}
	if !strings.Contains(regs[0].String(), "BenchmarkTight") {
		t.Fatalf("regression string = %q", regs[0].String())
	}

	// The allowance override holds until it too is exceeded.
	fresh[1].NsOp = 2100
	regs = Gate(s, fresh, 0.15)
	if len(regs) != 2 || regs[1].Name != "BenchmarkLoose" || regs[1].Limit != 1.0 {
		t.Fatalf("gate with blown allowance = %+v", regs)
	}

	// Newer trajectory entries supersede older ones.
	faster := base[0]
	faster.NsOp = 500
	if err := s.Append(faster.Record("seed2", 0), nil); err != nil {
		t.Fatal(err)
	}
	fresh[0].NsOp = 560
	fresh[1].NsOp = 1000
	regs = Gate(s, fresh, 0.15)
	if len(regs) != 0 {
		t.Fatalf("gate against updated trajectory = %+v", regs)
	}
	fresh[0].NsOp = 600
	if regs = Gate(s, fresh, 0.15); len(regs) != 1 || regs[0].Base != 500 {
		t.Fatalf("gate should compare against the latest entry: %+v", regs)
	}
}

// TestGateBytes: bytes per op regress under the same limit as time when
// both the fresh and the stored record carry them; history without them
// passes, as for ns/op.
func TestGateBytes(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "trajectory.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bytes := func(v float64) *float64 { return &v }
	for _, b := range []BenchResult{
		{Name: "BenchmarkMem", Runs: 2, NsOp: 1000, BytesOp: bytes(1 << 20)},
		{Name: "BenchmarkNoMemHistory", Runs: 2, NsOp: 1000},
		{Name: "BenchmarkZeroAlloc", Runs: 2, NsOp: 1000, BytesOp: bytes(0)},
	} {
		if err := s.Append(b.Record("seed", 0), nil); err != nil {
			t.Fatal(err)
		}
	}

	fresh := []BenchResult{
		{Name: "BenchmarkMem", Runs: 2, NsOp: 1000, BytesOp: bytes(1.1 * (1 << 20))},
		{Name: "BenchmarkNoMemHistory", Runs: 2, NsOp: 1000, BytesOp: bytes(1 << 30)},
		{Name: "BenchmarkZeroAlloc", Runs: 2, NsOp: 1000, BytesOp: bytes(64)},
	}
	if regs := Gate(s, fresh, 0.15); len(regs) != 0 {
		t.Fatalf("clean gate flagged %+v", regs)
	}

	// Bytes past the limit regress even though time held.
	fresh[0].BytesOp = bytes(2 << 20)
	regs := Gate(s, fresh, 0.15)
	if len(regs) != 1 || regs[0].Name != "BenchmarkMem" || regs[0].Unit != "B/op" ||
		regs[0].Base != 1<<20 || regs[0].Ratio != 1 {
		t.Fatalf("gate = %+v, want one BenchmarkMem B/op regression", regs)
	}
	if got := regs[0].String(); !strings.Contains(got, "B/op") {
		t.Fatalf("regression string = %q", got)
	}

	// A fresh run without -benchmem checks time only.
	fresh[0].BytesOp = nil
	if regs := Gate(s, fresh, 0.15); len(regs) != 0 {
		t.Fatalf("bytes-less fresh run flagged %+v", regs)
	}

	// Time and bytes both past the limit: two regressions.
	fresh[0].NsOp, fresh[0].BytesOp = 2000, bytes(2<<20)
	if regs := Gate(s, fresh, 0.15); len(regs) != 2 || regs[0].Unit != "ns/op" || regs[1].Unit != "B/op" {
		t.Fatalf("gate = %+v, want ns/op and B/op regressions", regs)
	}
}
