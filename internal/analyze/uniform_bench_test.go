package analyze

import (
	"testing"

	"atgpu/internal/algorithms"
	"atgpu/internal/kernel"
)

var benchCert *UniformCert

// BenchmarkBlockUniform measures one certification of the vecadd and
// matmul workload kernels at the GTX650 warp width, with the global memory
// and launch size the workload's Run uses. Each op proves from scratch:
// the prover keeps no state between calls.
func BenchmarkBlockUniform(b *testing.B) {
	const width = 32
	cases := []struct {
		name   string
		build  func() (*kernel.Program, error)
		global int
		blocks int
	}{
		{"vecadd-1e6", func() (*kernel.Program, error) {
			v := algorithms.VecAdd{N: 1_000_000}
			return v.Kernel(width, 0, v.N, 2*v.N)
		}, 3_000_000, algorithms.VecAdd{N: 1_000_000}.Blocks(width)},
		{"matmul-256", matmulBuild(256, width), 3 * 256 * 256, algorithms.MatMul{N: 256}.Blocks(width)},
		{"matmul-512", matmulBuild(512, width), 3 * 512 * 512, algorithms.MatMul{N: 512}.Blocks(width)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			prog, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchCert, _ = BlockUniform(prog, width, tc.global, tc.blocks)
			}
		})
	}
}

func matmulBuild(n, width int) func() (*kernel.Program, error) {
	return func() (*kernel.Program, error) {
		nn := n * n
		return algorithms.MatMul{N: n}.Kernel(width, 0, nn, 2*nn)
	}
}
