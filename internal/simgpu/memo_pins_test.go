// External test package: the pins need the real certificate from
// internal/analyze and the builtin kernels from internal/algorithms, both
// of which import simgpu.
package simgpu_test

import (
	"testing"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
)

// TestMemoElidedBlockPins pins how many blocks block memoization replays
// instead of scheduling under the real prover: on GTX650 the paper's
// matmul at n=128 and n=256 and reduce's first round at n=4096, and vecadd
// at n=2¹⁶ on K40 and GTX1080. Memo skips every whole period that fits,
// so only the warm-up, the period that revealed the steady state and the
// drain are scheduled. GTX1080's vecadd schedule does not recur within
// the fingerprint budget (memoMaxSnapBytes), so it elides nothing: the
// known gap, pinned so that closing it shows.
func TestMemoElidedBlockPins(t *testing.T) {
	matmul := func(n int) func(b int) (*kernel.Program, error) {
		return func(b int) (*kernel.Program, error) { return algorithms.MatMul{N: n}.Kernel(b, 0, n*n, 2*n*n) }
	}
	vecadd := func(n int) func(b int) (*kernel.Program, error) {
		return func(b int) (*kernel.Program, error) { return algorithms.VecAdd{N: n}.Kernel(b, 0, n, 2*n) }
	}
	cases := []struct {
		name           string
		cfg            simgpu.Config
		kernel         func(b int) (*kernel.Program, error)
		globalWords    int
		blocks, elided int64
	}{
		{"gtx650 matmul n=128", simgpu.GTX650(), matmul(128), 3 * 128 * 128, 16, 8},
		{"gtx650 matmul n=256", simgpu.GTX650(), matmul(256), 3 * 256 * 256, 64, 56},
		{"gtx650 reduce n=4096", simgpu.GTX650(), func(b int) (*kernel.Program, error) {
			const n = 4096
			return algorithms.Reduce{N: n}.Kernel(b, 0, n, n)
		}, 4096 + 4096/32, 128, 64},
		{"k40 vecadd n=65536", simgpu.TeslaK40(), vecadd(1 << 16), 3 << 16, 2048, 1440},
		{"gtx1080 vecadd n=65536", simgpu.GTX1080(), vecadd(1 << 16), 3 << 16, 2048, 0},
	}
	for _, tc := range cases {
		prog, err := tc.kernel(tc.cfg.WarpWidth)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c := tc.cfg
		c.GlobalWords = tc.globalWords
		dev, err := simgpu.New(c)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		dev.SetUniformProver(analyze.UniformProver)
		if _, err := dev.Launch(prog, int(tc.blocks)); err != nil {
			t.Fatalf("%s: Launch: %v", tc.name, err)
		}
		skips := int64(0)
		if tc.elided > 0 {
			skips = 1
		}
		if got := dev.MemoSkips(); got != skips {
			t.Errorf("%s: memoization engaged %d times, want %d", tc.name, got, skips)
		}
		if got := dev.MemoElided(); got != tc.elided {
			t.Errorf("%s: %d of %d blocks replayed, want %d", tc.name, got, tc.blocks, tc.elided)
		}
	}
}
