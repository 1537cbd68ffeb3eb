// Out-of-core reduction: the paper's future-work experiment (§V). The
// input deliberately exceeds the device's global memory G, forcing
// partitioned processing — the situation ATGPU's global-memory constraint
// exists to expose. Two host-communication disciplines over identical work
// are run on the simulated timeline: serial (one stream: transfer, reduce,
// transfer, …) and overlapped (two streams, double-buffered, hiding
// transfer behind compute), next to the overlapped-cost model's
// prediction of both. This illustrates the "differing host device
// communication requirements" the paper hoped a transfer-aware model would
// distinguish.
package main

import (
	"fmt"
	"log"

	"atgpu"
)

func main() {
	// A deliberately tiny device: G = 2^16 words, so a 2^19-word input is
	// 8× out of core.
	opts := atgpu.DefaultOptions()
	opts.Device.GlobalWords = 1 << 16
	opts.Device.Name = "sim-gtx650-smallG"

	const n = 1 << 19
	sys, err := atgpu.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}

	// In-core execution must fail: the model rejects algorithms whose
	// global footprint exceeds G.
	if _, err := sys.Run("reduce", n); err == nil {
		log.Fatal("expected the in-core plan to exceed G")
	} else {
		fmt.Printf("in-core plan rejected as expected: %v\n\n", err)
	}

	fmt.Printf("out-of-core reduce, n=%d words, G=%d words\n\n", n, opts.Device.GlobalWords)
	fmt.Printf("%-12s %8s %12s %12s %8s %12s\n", "chunk", "chunks", "serial", "overlapped", "speedup", "predicted")
	// The overlapped schedule holds a chunk buffer and a partials buffer
	// per stream, so the largest usable chunk is just under G/2. Every
	// run checks its sum against the CPU reference.
	for _, chunk := range []int{1 << 12, 1 << 13, 1 << 14} {
		res, err := sys.RunOutOfCoreReduce(n, chunk)
		if err != nil {
			log.Fatal(err)
		}
		seq, pipe := res.Sequential.TotalTime, res.Pipelined.TotalTime
		fmt.Printf("%-12d %8d %10.3fms %10.3fms %7.2fx %11.2fx\n",
			chunk, res.Chunks, 1e3*seq, 1e3*pipe, seq/pipe, res.PredictedSequential/res.PredictedPipelined)
	}

	fmt.Println("\nLarger chunks amortise the per-transaction α; overlap hides")
	fmt.Println("transfer behind kernels. Both effects are invisible to a model")
	fmt.Println("without data transfer.")
}
