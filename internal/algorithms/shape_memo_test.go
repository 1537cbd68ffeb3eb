package algorithms

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"atgpu/internal/analyze"
	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// shapeArm is what one run of a workload leaves: global memory, every
// launch's result, the kernel time and the device's memo counts.
type shapeArm struct {
	mem           []Word
	results       []simgpu.KernelResult
	kernelT       int64
	skips, elided int64
}

// runShapeArm runs workload on a fresh device of cfg holding words words,
// whose shape memo is m (nil: no memoization).
func runShapeArm(t *testing.T, cfg simgpu.Config, words int, m *simgpu.ShapeMemo,
	workload func(h *simgpu.Host) ([]Word, error)) shapeArm {
	t.Helper()
	cfg.GlobalWords = words
	dev, err := simgpu.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dev.SetShapeMemo(m)
	eng, err := transfer.NewEngine(transfer.PCIeGen3x8Link(), transfer.Pinned)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	h, err := simgpu.NewHost(dev, eng, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	var arm shapeArm
	h.SetLaunchObserver(func(_ *kernel.Program, _ int, res simgpu.KernelResult) {
		arm.results = append(arm.results, res)
	})
	if _, err := workload(h); err != nil {
		t.Fatalf("workload: %v", err)
	}
	arm.mem = slices.Clone(dev.Global().Raw())
	arm.kernelT = int64(h.KernelTime())
	arm.skips, arm.elided = dev.MemoSkips(), dev.MemoElided()
	return arm
}

// TestShapeMemoHitMatchesMiss launches each certified builtin twice on
// fresh devices that share one shape memo, the second time on other
// data, on every preset, at sizes on both sides of three waves (the
// smallest launch memoized at its shape's first sight). Every certified
// launch of the second run must be a hit, and the run must leave what a
// miss on the same data leaves — global memory, every launch's
// KernelStats and time, the kernel time, MemoSkips and MemoElided — and
// what full simulation leaves.
func TestShapeMemoHitMatchesMiss(t *testing.T) {
	for _, preset := range []simgpu.Config{simgpu.GTX650(), simgpu.TeslaK40(), simgpu.GTX1080(), simgpu.Tiny()} {
		b := preset.WarpWidth
		wave := func(shared int) int { return preset.Occupancy(shared) * preset.NumSMs }
		type workload struct {
			name  string
			words int
			run   func(h *simgpu.Host, seed int64) ([]Word, error)
		}
		var cases []workload
		for _, waves := range []int{1, 4} {
			n := waves * wave(VecAdd{}.SharedWordsPerBlock(b)) * b
			cases = append(cases,
				workload{fmt.Sprintf("vecadd/n=%d", n), 3 * n, func(h *simgpu.Host, seed int64) ([]Word, error) {
					return VecAdd{N: n}.Run(h, randWords(n, seed), randWords(n, seed+1))
				}},
				// The first round has waves waves of blocks, the later
				// ones fewer.
				workload{fmt.Sprintf("reduce/n=%d", n), 2 * n, func(h *simgpu.Host, seed int64) ([]Word, error) {
					v, err := Reduce{N: n}.Run(h, randWords(n, seed))
					return []Word{v}, err
				}})
		}
		// Tiles per side: 2, fewer than three waves on every preset, and
		// the fewest whose square is three waves. Under the race detector
		// the big side runs on GTX650 and Tiny only: K40's and GTX1080's
		// (n = 320 and 512) take most of a minute there.
		mmWave := wave(MatMul{}.SharedWordsPerBlock(b))
		big := 1
		for big*big < 3*mmWave {
			big++
		}
		sides := []int{2, big}
		if raceEnabled && big*big > 16 {
			sides = sides[:1]
		}
		for _, tiles := range sides {
			n := tiles * b
			cases = append(cases, workload{fmt.Sprintf("matmul/n=%d", n), 3 * n * n, func(h *simgpu.Host, seed int64) ([]Word, error) {
				return MatMul{N: n}.Run(h, randWords(n*n, seed), randWords(n*n, seed+1))
			}})
		}
		for _, w := range cases {
			t.Run(preset.Name+"/"+w.name, func(t *testing.T) {
				withSeed := func(seed int64) func(h *simgpu.Host) ([]Word, error) {
					return func(h *simgpu.Host) ([]Word, error) { return w.run(h, seed) }
				}
				full := runShapeArm(t, preset, w.words, nil, withSeed(7))
				miss := runShapeArm(t, preset, w.words, simgpu.NewShapeMemo(analyze.UniformProver), withSeed(7))
				// Each launch of the workload has a shape of its own, and the
				// two runs prove each shape once: so the certified shapes are
				// the certified launches of one run.
				var certified int64
				m := simgpu.NewShapeMemo(func(prog *kernel.Program, cfg simgpu.Config, blocks int) bool {
					ok := analyze.UniformProver(prog, cfg, blocks)
					if ok {
						certified++
					}
					return ok
				})
				runShapeArm(t, preset, w.words, m, withSeed(3))
				hit := runShapeArm(t, preset, w.words, m, withSeed(7))
				if certified == 0 || m.Hits() != certified {
					t.Errorf("%d hits for %d certified launches", m.Hits(), certified)
				}
				for _, want := range []struct {
					name string
					arm  shapeArm
				}{{"miss", miss}, {"full simulation", full}} {
					if !slices.Equal(hit.mem, want.arm.mem) {
						t.Errorf("global memory differs from the %s's", want.name)
					}
					if !reflect.DeepEqual(hit.results, want.arm.results) || hit.kernelT != want.arm.kernelT {
						t.Errorf("launches differ from the %s's:\nhit  %+v\nwant %+v", want.name, hit.results, want.arm.results)
					}
				}
				if hit.skips != miss.skips || hit.elided != miss.elided {
					t.Errorf("%d memo skips and %d elided blocks, the miss %d and %d", hit.skips, hit.elided, miss.skips, miss.elided)
				}
			})
		}
	}
}
