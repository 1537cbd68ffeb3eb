// Package simgpu is a cycle-approximate simulator of a CUDA-like GPU, the
// substrate standing in for the paper's GTX 650 testbed. It executes
// kernel.Program launches over mem.Global/mem.Shared memories with:
//
//   - lockstep warps of b lanes (the model's cores Cᵢ of a multiprocessor),
//   - SIMT divergence for the single-block if construct ("If execution
//     paths diverge, all paths are executed"),
//   - coalescing: a warp's global access costs l transactions for l
//     distinct memory blocks,
//   - shared-memory bank conflicts (optionally serialised),
//   - latency hiding: while a warp waits on memory, other resident warps
//     issue ("the wait time is hidden by operations of other warps"),
//   - occupancy: each SM holds ℓ = min(⌊M/m⌋, H) blocks concurrently.
//
// The Host type adds the simulated timeline around kernels: inward
// transfer, launch, outward transfer, synchronisation — the round
// structure of the ATGPU model — so experiments can observe both "kernel
// time" and "total time" exactly as the paper's Figures 3b/4b/5b do.
package simgpu

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Config describes the simulated device.
type Config struct {
	// Name labels the preset in reports.
	Name string

	// NumSMs is k', the number of streaming multiprocessors.
	NumSMs int
	// WarpWidth is b: cores per multiprocessor, lanes per warp, words per
	// global memory block, and shared memory banks.
	WarpWidth int
	// SharedWords is M, the shared memory per multiprocessor in words.
	SharedWords int
	// GlobalWords is G, the global memory size in words — the capacity
	// constraint ATGPU adds over prior models.
	GlobalWords int
	// MaxBlocksPerSM is H, the hardware limit on concurrently resident
	// thread blocks per multiprocessor.
	MaxBlocksPerSM int

	// ClockHz converts cycles to seconds; it instantiates the model's
	// operation rate γ for this device.
	ClockHz float64
	// GlobalLatencyCycles is λ: cycles for a global-memory transaction.
	// The paper cites 400–800 cycles on real parts.
	GlobalLatencyCycles int
	// ExtraTransactionCycles is the additional serialisation charged per
	// transaction beyond the first of an uncoalesced warp access.
	ExtraTransactionCycles int
	// SharedLatencyCycles is the cost of a conflict-free shared access;
	// the paper cites ~4 cycles.
	SharedLatencyCycles int
	// MemServiceCycles is the device-wide DRAM service time per block
	// transaction: the memory controller completes at most one
	// transaction every MemServiceCycles cycles, so uncoalesced access
	// patterns saturate bandwidth rather than hiding behind concurrency.
	// 0 disables bandwidth modelling (infinite DRAM throughput).
	MemServiceCycles int
	// SerialiseBankConflicts enables charging (degree-1) extra shared
	// latencies on bank conflicts. The ATGPU model assumes conflict-free
	// kernels; the device can still enforce the cost for ablations.
	SerialiseBankConflicts bool
	// BroadcastSharedReads enables the hardware same-word broadcast when
	// computing conflict degree.
	BroadcastSharedReads bool
	// DisableEventSkip forces the scheduler to step the clock one cycle
	// at a time when no warp can issue, instead of jumping to the next
	// memory-completion event. Results are identical; simulation is much
	// slower. Exists for the clock-skip ablation bench.
	DisableEventSkip bool
}

// MarshalJSON encodes c as encoding/json would, plus the retired
// LegacyInterp switch at its old place, always false, so records made
// before the switch interpreter was deleted stay byte-identical.
func (c Config) MarshalJSON() ([]byte, error) {
	type fields Config // drops this method
	return json.Marshal(struct {
		fields
		LegacyInterp bool
	}{fields: fields(c)})
}

// MaxWarpWidth is the largest warp width Config.Validate accepts. The
// simulator itself only needs per-lane vectors, which scale to any width;
// the cap bounds per-warp memory and keeps launch parameters sane. Note
// that package analyze tracks lane sets in 64-bit masks, so static
// analysis (and hence lint gating and the BlockUniform memoization
// certificate) is only available for widths up to 64.
const MaxWarpWidth = 1024

// Errors from configuration validation.
var (
	ErrBadConfig = errors.New("simgpu: invalid config")
)

// Validate checks the configuration for usability.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("%w: NumSMs=%d", ErrBadConfig, c.NumSMs)
	case c.WarpWidth <= 0 || c.WarpWidth > MaxWarpWidth:
		return fmt.Errorf("%w: WarpWidth=%d (want 1..%d)", ErrBadConfig, c.WarpWidth, MaxWarpWidth)
	case c.SharedWords < 0:
		return fmt.Errorf("%w: SharedWords=%d", ErrBadConfig, c.SharedWords)
	case c.GlobalWords < 0:
		return fmt.Errorf("%w: GlobalWords=%d", ErrBadConfig, c.GlobalWords)
	case c.MaxBlocksPerSM <= 0:
		return fmt.Errorf("%w: MaxBlocksPerSM=%d", ErrBadConfig, c.MaxBlocksPerSM)
	case c.ClockHz <= 0:
		return fmt.Errorf("%w: ClockHz=%g", ErrBadConfig, c.ClockHz)
	case c.GlobalLatencyCycles < 0:
		return fmt.Errorf("%w: GlobalLatencyCycles=%d", ErrBadConfig, c.GlobalLatencyCycles)
	case c.ExtraTransactionCycles < 0:
		return fmt.Errorf("%w: ExtraTransactionCycles=%d", ErrBadConfig, c.ExtraTransactionCycles)
	case c.SharedLatencyCycles < 0:
		return fmt.Errorf("%w: SharedLatencyCycles=%d", ErrBadConfig, c.SharedLatencyCycles)
	case c.MemServiceCycles < 0:
		return fmt.Errorf("%w: MemServiceCycles=%d", ErrBadConfig, c.MemServiceCycles)
	}
	return nil
}

// Occupancy returns ℓ = min(⌊M/m⌋, H) for a block using m shared words.
// A block that uses no shared memory is limited only by H. A block whose m
// exceeds M cannot run at all and yields 0.
func (c Config) Occupancy(sharedWordsPerBlock int) int {
	if sharedWordsPerBlock < 0 {
		return 0
	}
	if sharedWordsPerBlock == 0 {
		return c.MaxBlocksPerSM
	}
	byShared := c.SharedWords / sharedWordsPerBlock
	if byShared > c.MaxBlocksPerSM {
		return c.MaxBlocksPerSM
	}
	return byShared
}

// CyclesToSeconds converts a cycle count to seconds at the device clock.
func (c Config) CyclesToSeconds(cycles int64) float64 {
	return float64(cycles) / c.ClockHz
}

// GTX650 approximates the paper's test GPU at the granularity the model
// cares about: 2 SMs, 32-lane warps, 48 KiB shared memory per SM
// (6144 8-byte words), ~1 GHz clock, 400-cycle global latency, 4-cycle
// shared latency, up to 16 resident blocks per SM. Global memory defaults
// to 2^27 words (1 GiB of 8-byte words); large-input experiments may reduce
// n or raise G explicitly.
func GTX650() Config {
	return Config{
		Name:                   "sim-gtx650",
		NumSMs:                 2,
		WarpWidth:              32,
		SharedWords:            6144,
		GlobalWords:            1 << 27,
		MaxBlocksPerSM:         16,
		ClockHz:                1.058e9,
		GlobalLatencyCycles:    400,
		ExtraTransactionCycles: 100,
		SharedLatencyCycles:    4,
		// GDDR5 at ~80 GB/s against a ~1 GHz core clock moves a 32-word
		// (256-byte) block in roughly 3 cycles.
		MemServiceCycles:       3,
		SerialiseBankConflicts: true,
		BroadcastSharedReads:   true,
	}
}

// GTX1080 approximates a Pascal-class part: 20 SMs, ~1.6 GHz, higher
// memory bandwidth (320 GB/s ≈ a 256-byte block per cycle), deeper
// residency. Used by the cross-device verification experiment the paper's
// future work calls for ("verify the model using other GPUs").
func GTX1080() Config {
	return Config{
		Name:                   "sim-gtx1080",
		NumSMs:                 20,
		WarpWidth:              32,
		SharedWords:            12288, // 96 KiB of 8-byte words
		GlobalWords:            1 << 27,
		MaxBlocksPerSM:         32,
		ClockHz:                1.607e9,
		GlobalLatencyCycles:    350,
		ExtraTransactionCycles: 80,
		SharedLatencyCycles:    4,
		MemServiceCycles:       1,
		SerialiseBankConflicts: true,
		BroadcastSharedReads:   true,
	}
}

// TeslaK40 approximates a Kepler-class compute part: 15 SMs, ~745 MHz,
// 288 GB/s memory.
func TeslaK40() Config {
	return Config{
		Name:                   "sim-k40",
		NumSMs:                 15,
		WarpWidth:              32,
		SharedWords:            6144,
		GlobalWords:            1 << 27,
		MaxBlocksPerSM:         16,
		ClockHz:                0.745e9,
		GlobalLatencyCycles:    450,
		ExtraTransactionCycles: 110,
		SharedLatencyCycles:    5,
		MemServiceCycles:       1,
		SerialiseBankConflicts: true,
		BroadcastSharedReads:   true,
	}
}

// Presets returns the named device presets available to experiments.
func Presets() []Config {
	return []Config{GTX650(), GTX1080(), TeslaK40()}
}

// Preset resolves a device preset by its short name: gtx650, gtx1080, k40
// or tiny — the names the CLIs' -device flags and atgpud requests take.
func Preset(name string) (Config, error) {
	switch name {
	case "gtx650":
		return GTX650(), nil
	case "gtx1080":
		return GTX1080(), nil
	case "k40":
		return TeslaK40(), nil
	case "tiny":
		return Tiny(), nil
	}
	return Config{}, fmt.Errorf("unknown device %q (want gtx650, gtx1080, k40 or tiny)", name)
}

// Tiny returns a small device handy for unit tests: 2 SMs, 4-lane warps,
// 64-word shared memory, 4096-word global memory, H=2.
func Tiny() Config {
	return Config{
		Name:                   "sim-tiny",
		NumSMs:                 2,
		WarpWidth:              4,
		SharedWords:            64,
		GlobalWords:            4096,
		MaxBlocksPerSM:         2,
		ClockHz:                1e6,
		GlobalLatencyCycles:    20,
		ExtraTransactionCycles: 5,
		SharedLatencyCycles:    2,
		MemServiceCycles:       2,
		SerialiseBankConflicts: true,
		BroadcastSharedReads:   true,
	}
}

// PerfectGPU returns a configuration approximating the paper's "perfect
// GPU": enough multiprocessors and residency that every thread block of a
// launch runs concurrently (bounded by the given blocks). Global latency
// and clock match GTX650 so only parallelism differs; used by the
// occupancy ablation.
func PerfectGPU(blocks int) Config {
	c := GTX650()
	c.Name = "sim-perfect"
	if blocks < 1 {
		blocks = 1
	}
	c.NumSMs = blocks
	c.MaxBlocksPerSM = 1
	return c
}
