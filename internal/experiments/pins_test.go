package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
)

var updatePins = flag.Bool("update-pins", false, "rewrite the pins under testdata/ from the current code")

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

// errInputsSeen stops a pinned point at its first launch.
var errInputsSeen = errors.New("inputs seen")

// TestInputHashPins pins the FNV-1a checksums (mem.Checksum) of the input
// vectors sweep points draw at the default seed, as they land on the
// device at the first launch. Simulated timings do not depend on input
// values, so no record, CSV or cache-key pin would notice a changed draw.
func TestInputHashPins(t *testing.T) {
	r, err := NewRunner(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := r.Config().Device.WarpWidth
	for _, pin := range []struct {
		workload string
		n, idx   int
		want     []uint64
	}{
		{"vecadd", 100_000, 0, []uint64{0x3cd17d3365a679fc, 0x8253b75cc851acec}},
		{"matmul", 64, 1, []uint64{0xd05892cf0f91d78e, 0x88adaf2ecafcd990}},
		{"reduce", 1 << 16, 0, []uint64{0xde3ba2c45e7068c4}},
	} {
		w, err := Lookup(pin.workload)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.sweepSizes(r.Config())[pin.idx]; got != pin.n {
			t.Fatalf("%s: default sweep point %d is n=%d, want %d", pin.workload, pin.idx, got, pin.n)
		}
		s := new(pointScratch)
		h, err := r.newHostIn(s, w.footprint(pin.n, b), w.Name, pin.n, pin.idx)
		if err != nil {
			t.Fatal(err)
		}
		words := w.sweepInputWords([]int{pin.n})
		var got []uint64
		h.SetPreLaunch(func(*kernel.Program, int) error {
			for i := range pin.want {
				sum, err := h.Device().Global().ChecksumRange(i*alignUp(words, b), words)
				if err != nil {
					return err
				}
				got = append(got, sum)
			}
			return errInputsSeen
		})
		s.rng.seed(r.inputSeed(w.Name, pin.n, pin.idx))
		if err := w.observe(h, pin.n, s); !errors.Is(err, errInputsSeen) {
			t.Fatalf("%s n=%d: %v", pin.workload, pin.n, err)
		}
		if !slices.Equal(got, pin.want) {
			t.Errorf("%s n=%d idx=%d: input checksums %#x, pinned %#x", pin.workload, pin.n, pin.idx, got, pin.want)
		}
	}
}
