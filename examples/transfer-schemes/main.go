// Transfer schemes: the paper's motivation made concrete. The same vector
// addition is executed with pageable, pinned and mapped (zero-copy-like)
// host↔device transfer — the technique space studied by Fujii et al. and
// van Werkhoven et al. (paper §I-D) — showing how strongly the transfer
// discipline moves *total* time while kernel time is untouched, and how
// the ATGPU cost function re-predicts each case by swapping (α, β) while a
// transfer-blind model cannot distinguish them at all.
package main

import (
	"fmt"
	"log"

	"atgpu"
	"atgpu/internal/transfer"
)

func main() {
	const n = 1 << 21

	fmt.Printf("vecadd n=%d under three transfer schemes\n\n", n)
	fmt.Printf("%-10s %12s %12s %12s %8s %8s\n",
		"scheme", "kernel", "transfer", "total", "ΔE", "ΔT")

	var kernelTimes []float64
	for _, scheme := range []transfer.Scheme{transfer.Pageable, transfer.Pinned, transfer.Mapped} {
		opts := atgpu.DefaultOptions()
		opts.Scheme = scheme
		sys, err := atgpu.NewSystem(opts)
		if err != nil {
			log.Fatal(err)
		}
		// Every scheme runs the same seeded inputs.
		obs, err := sys.Run("vecadd", n)
		if err != nil {
			log.Fatal(err)
		}
		kernelTimes = append(kernelTimes, obs.KernelTime)
		fmt.Printf("%-10s %11.4gs %11.4gs %11.4gs %7.1f%% %7.1f%%\n",
			scheme, obs.KernelTime, obs.TransferTime, obs.TotalTime,
			100*obs.DeltaObserved, 100*obs.DeltaPredicted)
	}

	fmt.Println()
	fmt.Println("The kernel column is identical across schemes — a model that")
	fmt.Println("prices only the kernel (SWGPU) predicts the same time for all")
	fmt.Println("three rows; ATGPU's (α, β) terms separate them.")
	for i := 1; i < len(kernelTimes); i++ {
		if kernelTimes[i] != kernelTimes[0] {
			fmt.Println("note: kernel times diverged unexpectedly — check device determinism")
		}
	}
}
