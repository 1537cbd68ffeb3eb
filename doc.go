// Package atgpu is a Go implementation of the ATGPU model — "An Improved
// Abstract GPU Model with Data Transfer" (Carroll & Wong, ICPP 2017
// Workshops) — together with everything needed to validate it: a
// cycle-approximate simulated GPU, a host↔device transfer engine with
// Boyer-style costs, the SWGPU and AGPU baseline models, the paper's three
// evaluation workloads, and an experiment harness that regenerates every
// table and figure of the paper's evaluation section.
//
// # The model
//
// ATGPU(p, b, M, G) describes a device with p cores grouped b to a
// multiprocessor, M words of shared memory per multiprocessor and G words
// of global memory. Algorithms execute in rounds — inward transfer, kernel,
// outward transfer, synchronisation — and are analysed per round by
// operation count tᵢ, block-transaction count qᵢ, space usage, and transfer
// volumes Iᵢ/Oᵢ. Two cost functions price an analysis: the perfect-GPU cost
//
//	Σᵢ ( TI(i) + (tᵢ + λ·qᵢ)/γ + TO(i) + σ )
//
// and the GPU-cost, which simulates a real machine of k' multiprocessors by
// scaling compute with the occupancy factor ⌈k/(k'ℓ)⌉, ℓ = min(⌊M/m⌋, H).
// TI(i) = Îᵢα + Iᵢβ is the Boyer transfer cost; capturing it is the
// model's contribution over SWGPU and AGPU.
//
// # Quick start
//
//	sys, err := atgpu.NewSystem(atgpu.DefaultOptions())
//	...
//	pred, err := sys.AnalyzeWorkload("vecadd", 1_000_000) // predicted costs
//	point, err := sys.Run("vecadd", 1_000_000)           // simulated, verified run
//
// See examples/ for complete programs and cmd/atgpu-figures for the
// paper-reproduction harness.
package atgpu
