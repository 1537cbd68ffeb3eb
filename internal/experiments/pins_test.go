package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"atgpu/internal/simgpu"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/record_pins.json from the current code")

// pinConfig is a two-size sweep of every workload on the tiny preset,
// with shared memory raised to 256 words so the privatized histogram's
// 32 per-block bins fit.
func pinConfig() Config {
	cfg := DefaultConfig()
	cfg.Device = simgpu.Tiny()
	cfg.Device.SharedWords = 256
	cfg.Workers = 1
	cfg.SizesVecAdd = []int{512, 1024}
	cfg.SizesReduce = []int{1024, 2048}
	cfg.SizesMatMul = []int{16, 32}
	cfg.SizesHistogram = []int{1024, 2048}
	cfg.SizesCompact = []int{512, 1024}
	cfg.SizesTopK = []int{1024, 2048}
	cfg.SizesMonteCarlo = []int{64, 256}
	return cfg
}

// TestRecordHashPins pins the SHA-256 of json.Marshal(data.Records) for
// every sweep, plain and pipelined, so a refactor of the sweep machinery
// cannot silently change a record. Regenerate with -update-pins only for
// an intended results-format change.
func TestRecordHashPins(t *testing.T) {
	r, err := NewRunner(pinConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	hash := func(name string, v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got[name] = hex.EncodeToString(sum[:])
	}
	for _, w := range Workloads() {
		data, err := r.Sweep(w.Name)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		hash(w.Name, data.Records)
		if !w.Pipelined() {
			continue
		}
		pd, err := r.SweepPipelined(w.Name)
		if err != nil {
			t.Fatalf("%s pipelined: %v", w.Name, err)
		}
		hash(pd.Workload, pd.Records)
	}

	path := filepath.Join("testdata", "record_pins.json")
	if *updatePins {
		raw, _ := json.MarshalIndent(got, "", "  ")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("pinned %d sweeps, ran %d", len(want), len(got))
	}
	for name, h := range want {
		if got[name] != h {
			t.Errorf("%s: records hash %s, pinned %s", name, got[name], h)
		}
	}
}
