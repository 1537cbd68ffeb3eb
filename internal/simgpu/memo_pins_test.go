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
// instead of scheduling on GTX650 under the real prover, for the paper's
// matmul at n=256 and reduce's first round at n=4096. Memo skips every
// whole period that fits, so only the warm-up, the period that revealed
// the steady state and the drain are scheduled.
func TestMemoElidedBlockPins(t *testing.T) {
	cfg := simgpu.GTX650()
	b := cfg.WarpWidth
	cases := []struct {
		name           string
		kernel         func() (*kernel.Program, error)
		globalWords    int
		blocks, elided int64
	}{
		{"matmul n=256", func() (*kernel.Program, error) {
			const n = 256
			return algorithms.MatMul{N: n}.Kernel(b, 0, n*n, 2*n*n)
		}, 3 * 256 * 256, 64, 56},
		{"reduce n=4096", func() (*kernel.Program, error) {
			const n = 4096
			return algorithms.Reduce{N: n}.Kernel(b, 0, n, n)
		}, 4096 + 4096/32, 128, 64},
	}
	for _, tc := range cases {
		prog, err := tc.kernel()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c := cfg
		c.GlobalWords = tc.globalWords
		dev, err := simgpu.New(c)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		dev.SetUniformProver(analyze.UniformProver)
		if _, err := dev.Launch(prog, int(tc.blocks)); err != nil {
			t.Fatalf("%s: Launch: %v", tc.name, err)
		}
		if got := dev.MemoSkips(); got != 1 {
			t.Errorf("%s: memoization engaged %d times, want 1", tc.name, got)
		}
		if got := dev.MemoElided(); got != tc.elided {
			t.Errorf("%s: %d of %d blocks replayed, want %d", tc.name, got, tc.blocks, tc.elided)
		}
	}
}
