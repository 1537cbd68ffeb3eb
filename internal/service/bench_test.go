package service

import (
	"fmt"
	"testing"
)

// BenchmarkCacheKey measures Compiled.Key, which admission runs once per
// submitted job on the kernels it has just built, on the perfbench
// service-mix request shapes: vecadd n=1024 and 4096, reduce n=4096 and
// matmul n=64, as run and lint jobs on the default GTX650. The kernel
// build happens once, outside the timed loop, as at admission. Run with
// -benchmem; CI uploads the numbers as BENCH_cachekey.json.
func BenchmarkCacheKey(b *testing.B) {
	for _, c := range []struct {
		workload string
		n        int
	}{{"vecadd", 1024}, {"vecadd", 4096}, {"reduce", 4096}, {"matmul", 64}} {
		for _, kind := range []string{"run", "lint"} {
			req, err := Request{Kind: kind, Workload: c.workload, N: c.n, Seed: 1}.Normalize()
			if err != nil {
				b.Fatal(err)
			}
			job, err := req.Compile()
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s/n=%d", kind, c.workload, c.n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					job.Key()
				}
			})
		}
	}
}
