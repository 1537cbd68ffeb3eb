// Quickstart: predict a GPU algorithm's running time on the ATGPU model,
// execute it on the simulated GPU, and compare — the paper's core workflow
// in ~60 lines.
package main

import (
	"fmt"
	"log"

	"atgpu"
)

func main() {
	// A System pairs a simulated GTX 650 with calibrated cost parameters
	// (γ, λ, σ from kernel microbenchmarks; α, β from the transfer link).
	sys, err := atgpu.NewSystem(atgpu.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	cp := sys.CostParams()
	fmt.Printf("calibrated: γ=%.3g op/s, λ=%.1f cycles, α=%.2gs, β=%.2gs/word\n\n",
		cp.Gamma, cp.Lambda, cp.Alpha, cp.Beta)

	const n = 1 << 20

	// Predict: vector addition analysed on the abstract model.
	pred, err := sys.AnalyzeWorkload("vecadd", n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vecadd n=%d predicted on the model:\n", n)
	fmt.Printf("  rounds R = %d, Σ(I+O) = %d words\n",
		pred.Analysis.R(), pred.Analysis.TotalTransferWords())
	fmt.Printf("  GPU-cost (with transfer)    = %.4g s\n", pred.GPUCost)
	fmt.Printf("  SWGPU baseline (no transfer) = %.4g s\n", pred.SWGPUCost)
	fmt.Printf("  predicted transfer share ΔT  = %.1f%%\n\n", 100*pred.TransferFraction)

	// Observe: the same computation executed on the simulated device, on
	// seeded random inputs, its result checked on the host.
	obs, err := sys.Run("vecadd", n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("vecadd observed on the simulated GTX 650 (verified):")
	fmt.Printf("  kernel %.4gs + transfer %.4gs + sync %.4gs = total %.4gs\n",
		obs.KernelTime, obs.TransferTime, obs.SyncTime, obs.TotalTime)
	fmt.Printf("  observed transfer share ΔE = %.1f%%\n\n", 100*obs.DeltaObserved)

	// The paper's point: a model without data transfer (SWGPU) accounts
	// for only the kernel slice of the total; ATGPU tracks the whole.
	fmt.Printf("SWGPU explains %.0f%% of the total; ATGPU explains %.0f%%.\n",
		100*pred.SWGPUCost/obs.TotalTime, 100*pred.GPUCost/obs.TotalTime)
}
