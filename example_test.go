package atgpu_test

import (
	"fmt"
	"log"

	"atgpu"
	"atgpu/internal/core"
	"atgpu/internal/models"
	"atgpu/internal/simgpu"
)

// Example_predictVsObserve is the paper's core workflow: price an
// algorithm on the abstract model, execute it on the simulated device, and
// compare the transfer shares. Run on the deterministic Tiny device so the
// output is stable.
func Example_predictVsObserve() {
	opts := atgpu.DefaultOptions()
	opts.Device = simgpu.Tiny()
	sys, err := atgpu.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}

	const n = 1024
	pred, err := sys.AnalyzeWorkload("vecadd", n)
	if err != nil {
		log.Fatal(err)
	}
	obs, err := sys.Run("vecadd", n)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("rounds:", pred.Analysis.R())
	fmt.Println("transfer words:", pred.Analysis.TotalTransferWords())
	fmt.Println("verified:", !obs.Failed)
	fmt.Println("ATGPU above SWGPU:", pred.GPUCost > pred.SWGPUCost)
	fmt.Println("transfer adds to total:", obs.TotalTime > obs.KernelTime)
	// Output:
	// rounds: 1
	// transfer words: 3072
	// verified: true
	// ATGPU above SWGPU: true
	// transfer adds to total: true
}

// ExampleTableI reproduces the paper's model-comparison table.
func ExampleTableI() {
	fmt.Print(atgpu.TableI())
	// Output:
	// Item                         AGPU    SWGPU   ATGPU
	// ----------------------------------------------------
	// Pseudocode                   x               x
	// Time Complexity              x       x       x
	// I/O Complexity               x       x       x
	// Space Complexity             x               x
	// Shared Memory Limit          x               x
	// Synchronisation                      x       x
	// Cost Function                        x       x
	// Global Memory Limit                          x
	// Host/Device Data Transfer                    x
}

// Example_costFunctions evaluates both of the paper's cost expressions on
// a hand-written analysis with easy numbers: one round, t = 10 ops,
// q = 5 block transactions, I = 100 words in 2 transactions, O = 50 words
// in 1, on a machine where γ = 1000 op/s, λ = 4, σ = 0.5 s, α = 0.01 s,
// β = 0.001 s/word, k' = 2, H = 4.
func Example_costFunctions() {
	analysis := &core.Analysis{
		Name:   "by-hand",
		Params: core.Params{P: 128, B: 32, M: 100, G: 10000},
		Rounds: []core.Round{{
			Time: 10, IO: 5, Blocks: 4, SharedWords: 25,
			InWords: 100, InTransactions: 2,
			OutWords: 50, OutTransactions: 1,
		}},
	}
	cp := core.CostParams{
		Gamma: 1000, Lambda: 4, Sigma: 0.5,
		Alpha: 0.01, Beta: 0.001, KPrime: 2, H: 4,
	}

	perfect, err := core.PerfectCost(analysis, cp)
	if err != nil {
		log.Fatal(err)
	}
	gpu, err := core.GPUCost(analysis, cp)
	if err != nil {
		log.Fatal(err)
	}
	sw, err := models.SWGPUCost(analysis, cp)
	if err != nil {
		log.Fatal(err)
	}
	// TI = 2α+100β = 0.12; TO = α+50β = 0.06
	// Expression (1): 0.12 + (10+20)/1000 + 0.06 + 0.5 = 0.71
	// Expression (2): ℓ = min(⌊100/25⌋,4) = 4, factor = ⌈4/8⌉ = 1 → same
	fmt.Printf("perfect (Expr 1): %.2f s\n", perfect)
	fmt.Printf("gpu     (Expr 2): %.2f s\n", gpu)
	fmt.Printf("swgpu baseline:   %.2f s\n", sw)
	// Output:
	// perfect (Expr 1): 0.71 s
	// gpu     (Expr 2): 0.71 s
	// swgpu baseline:   0.53 s
}
