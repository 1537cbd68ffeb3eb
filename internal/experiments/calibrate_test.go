package experiments

import (
	"reflect"
	"testing"
	"time"

	"atgpu/internal/analyze"
	"atgpu/internal/calibrate"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// TestCalibrateSizesDeviceToFootprint: Calibrate's device holds exactly
// the words the memory microkernel reads, and its result equals a
// calibration on the min(G, 1<<22)-word device it used to allocate, on
// every preset. GTX1080 takes the block-halving path.
func TestCalibrateSizesDeviceToFootprint(t *testing.T) {
	for _, c := range []struct {
		preset        string
		blocks, words int
	}{
		{"gtx650", 256, 1 << 19},
		{"gtx1080", 1280, 5 << 19},
		{"k40", 1920, 15 << 18},
		{"tiny", 16, 4096},
	} {
		dev, err := simgpu.Preset(c.preset)
		if err != nil {
			t.Fatal(err)
		}
		wide := dev
		wide.GlobalWords = min(dev.GlobalWords, 1<<22)
		blocks, words, err := calibrate.MemoryFootprint(wide)
		if err != nil || blocks != c.blocks || words != c.words {
			t.Errorf("%s: footprint %d blocks, %d words (err %v), want %d, %d",
				c.preset, blocks, words, err, c.blocks, c.words)
		}

		cfg := Config{Device: dev, Scheme: transfer.Pageable, SyncCost: 50 * time.Microsecond}
		_, got, err := Calibrate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := simgpu.New(wide)
		if err != nil {
			t.Fatal(err)
		}
		d.SetUniformProver(analyze.UniformProver)
		eng, err := transfer.NewEngine(transfer.PCIeGen3x8Link(), cfg.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		want, err := calibrate.Run(d, eng, cfg.SyncCost)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: calibration on the footprint-sized device\n%+v\nwant\n%+v", c.preset, got, want)
		}
	}
}
