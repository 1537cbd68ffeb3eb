package atgpu

// BenchmarkSimSpeed measures raw simulator throughput on a block-uniform
// saxpy kernel (y[i] = a·x[i] + y[i]) in two arms, plus one shared-memory
// arm:
//
//	decoded:        the decoded-IR interpreter, memoization off
//	decoded-memo:   decoded IR plus analyzer-certified block memoization
//	decoded-shared: the tiled matmul kernel (n = simSpeedMatMulN) with no
//	                prover installed. The analyzer certifies matmul, but
//	                its 16 blocks are under the memo threshold (64) anyway:
//	                every block runs through the scheduler's shared-memory
//	                path
//
// Each saxpy op simulates one full launch of simSpeedBlocks thread blocks
// on the GTX650 preset; divide ns/op by simSpeedBlocks for ns per simulated
// block. A decoded-shared op is one launch of (n/32)² matmul blocks.
// CI parses `-bench SimSpeed` output into BENCH_simspeed.json; the gate
// job fails on >15% ns/op regression against the committed benchmark
// trajectory (testdata/trajectory.jsonl, via `atgpu results gate`).

import (
	"testing"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
)

const (
	simSpeedN      = 1 << 18
	simSpeedBlocks = simSpeedN / 32 // GTX650 warp width
	// simSpeedMatMulN is the decoded-shared arm's matrix side: 16 blocks
	// of 32×32 tiles.
	simSpeedMatMulN = 128
)

// saxpyKernel builds y[idx] = a·x[idx] + y[idx], idx = blk·b + lane.
func saxpyKernel(b *testing.B, width int, alpha int64, baseX, baseY int) *kernel.Program {
	b.Helper()
	kb := kernel.NewBuilder("saxpy", 0)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	idx := kb.Reg("idx")
	x := kb.Reg("x")
	y := kb.Reg("y")
	addr := kb.Reg("addr")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(width)))
	kb.Add(idx, idx, kernel.R(j))
	kb.Add(addr, idx, kernel.Imm(int64(baseX)))
	kb.LdGlobal(x, addr)
	kb.Mul(x, x, kernel.Imm(alpha))
	kb.Add(addr, idx, kernel.Imm(int64(baseY)))
	kb.LdGlobal(y, addr)
	kb.Add(y, y, kernel.R(x))
	kb.StGlobal(addr, y)
	prog, err := kb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func simSpeedDevice(b *testing.B, prover simgpu.UniformProver) *simgpu.Device {
	b.Helper()
	cfg := simgpu.GTX650()
	cfg.GlobalWords = 1 << 20
	dev, err := simgpu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if prover != nil {
		dev.SetUniformProver(prover)
	}
	raw := dev.Global().Raw()
	for i := 0; i < 2*simSpeedN; i++ {
		raw[i] = int64(i%97 - 48)
	}
	return dev
}

func BenchmarkSimSpeed(b *testing.B) {
	saxpy := func(b *testing.B, width int) (*kernel.Program, int) {
		return saxpyKernel(b, width, 3, 0, simSpeedN), simSpeedBlocks
	}
	matmul := func(b *testing.B, width int) (*kernel.Program, int) {
		b.Helper()
		mm := algorithms.MatMul{N: simSpeedMatMulN}
		nn := simSpeedMatMulN * simSpeedMatMulN
		prog, err := mm.Kernel(width, 0, nn, 2*nn)
		if err != nil {
			b.Fatal(err)
		}
		return prog, mm.Blocks(width)
	}
	arms := []struct {
		name   string
		prover simgpu.UniformProver
		build  func(b *testing.B, width int) (*kernel.Program, int)
	}{
		{"decoded", nil, saxpy},
		{"decoded-memo", analyze.UniformProver, saxpy},
		{"decoded-shared", nil, matmul},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			dev := simSpeedDevice(b, arm.prover)
			prog, blocks := arm.build(b, dev.Config().WarpWidth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dev.Launch(prog, blocks); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if arm.prover != nil && dev.MemoSkips() == 0 {
				b.Fatal("memoization never engaged in decoded-memo arm")
			}
		})
	}
}
