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

// TestMemoWithoutSkipMatchesFullSimulation: a memoized launch whose
// schedule never recurs skips no period, so the timing pass steps every
// block's cursor through block 0's cost trace and replay moves every
// block's data but block 0's. Under a certificate handed out unchecked
// and under the real prover, memory, every KernelStats field and the time
// must equal full simulation's. GTX1080's vecadd and reduce at n=2¹⁶
// (2048 blocks, over three waves of 640) never recur. K40 matmul at n=256
// (64 blocks) recurs with no whole period left, but is below three waves
// (30 matmul blocks a wave) and is not memoized at all: pinned, so that a
// change to eligibility shows here.
func TestMemoWithoutSkipMatchesFullSimulation(t *testing.T) {
	const n = 1 << 16
	cases := []struct {
		name        string
		cfg         simgpu.Config
		kernel      func(b int) (*kernel.Program, error)
		globalWords int
		blocks      int
		memoized    bool
	}{
		{"gtx1080 vecadd n=65536", simgpu.GTX1080(), func(b int) (*kernel.Program, error) {
			return algorithms.VecAdd{N: n}.Kernel(b, 0, n, 2*n)
		}, 3 * n, n / 32, true},
		{"gtx1080 reduce n=65536", simgpu.GTX1080(), func(b int) (*kernel.Program, error) {
			return algorithms.Reduce{N: n}.Kernel(b, 0, n, n)
		}, n + n/32, n / 32, true},
		{"k40 matmul n=256", simgpu.TeslaK40(), func(b int) (*kernel.Program, error) {
			return algorithms.MatMul{N: 256}.Kernel(b, 0, 256*256, 2*256*256)
		}, 3 * 256 * 256, 64, false},
	}
	unchecked := simgpu.UniformProver(func(*kernel.Program, simgpu.Config, int) bool { return true })
	for _, tc := range cases {
		prog, err := tc.kernel(tc.cfg.WarpWidth)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		run := func(prover simgpu.UniformProver) (simgpu.KernelResult, []kernel.Word, *simgpu.Device, bool) {
			c := tc.cfg
			c.GlobalWords = tc.globalWords
			dev, err := simgpu.New(c)
			if err != nil {
				t.Fatalf("%s: New: %v", tc.name, err)
			}
			certified := false
			if prover != nil {
				dev.SetUniformProver(func(p *kernel.Program, cfg simgpu.Config, blocks int) bool {
					certified = prover(p, cfg, blocks)
					return certified
				})
			}
			raw := dev.Global().Raw()
			for i := range raw {
				raw[i] = kernel.Word(i%1000 - 300)
			}
			res, err := dev.Launch(prog, tc.blocks)
			if err != nil {
				t.Fatalf("%s: Launch: %v", tc.name, err)
			}
			return res, append([]kernel.Word(nil), raw...), dev, certified
		}
		full, fullMem, _, _ := run(nil)
		for name, prover := range map[string]simgpu.UniformProver{"unchecked": unchecked, "prover": analyze.UniformProver} {
			memo, memoMem, dev, certified := run(prover)
			if certified != tc.memoized || dev.MemoSkips() != 0 || dev.MemoElided() != 0 {
				t.Fatalf("%s, %s certificate: memoized %v, %d skips, %d blocks elided; want memoized %v, no skip",
					tc.name, name, certified, dev.MemoSkips(), dev.MemoElided(), tc.memoized)
			}
			if memo.Stats != full.Stats || memo.Time != full.Time {
				t.Errorf("%s, %s certificate:\nmemo %+v / %v\nfull %+v / %v", tc.name, name, memo.Stats, memo.Time, full.Stats, full.Time)
			}
			for i := range fullMem {
				if memoMem[i] != fullMem[i] {
					t.Fatalf("%s, %s certificate: global[%d] = %d, full simulation %d", tc.name, name, i, memoMem[i], fullMem[i])
				}
			}
		}
	}
}
