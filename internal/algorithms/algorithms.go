// Package algorithms implements the computational problems the paper
// evaluates the ATGPU model on — vector addition, reduction and matrix
// multiplication — plus future-work variants (§V): out-of-core reduction
// under the global memory constraint with differing host-device
// communication schemes.
//
// Each workload supplies three coordinated artefacts:
//
//   - an exact ATGPU analysis (core.Analysis) whose per-round counts follow
//     the closed forms of the paper's Section IV,
//   - executable kernels (kernel.Program) run on the simulated device via a
//     host round plan, faithful to the paper's pseudocode (global→shared
//     staging, lockstep warps, single-block ifs),
//   - a CPU reference for correctness checking.
//
// The analysis and the kernels are deliberately derived from the same
// parameters so that predicted cost trends and simulated running times can
// be compared the way the paper compares predictions against GTX 650
// measurements.
package algorithms

import (
	"errors"
	"fmt"

	"atgpu/internal/kernel"
	"atgpu/internal/mem"
	"atgpu/internal/simgpu"
)

// Word re-exports the machine word for callers.
type Word = mem.Word

// Common errors.
var (
	ErrBadSize    = errors.New("algorithms: size must be positive")
	ErrBadShape   = errors.New("algorithms: input shape mismatch")
	ErrNotPow2    = errors.New("algorithms: warp width must be a power of two")
	ErrDoesNotFit = errors.New("algorithms: problem does not fit in global memory")
	ErrVerifyFail = errors.New("algorithms: output does not match reference")
)

// ceilDiv returns ⌈a/d⌉ for positive d.
func ceilDiv(a, d int) int { return (a + d - 1) / d }

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// log2 returns ⌊log₂ v⌋ for v ≥ 1.
func log2(v int) int {
	l := 0
	for v > 1 {
		v >>= 1
		l++
	}
	return l
}

// checkLen verifies a slice length.
func checkLen(name string, got, want int) error {
	if got != want {
		return fmt.Errorf("%w: %s has %d words, want %d", ErrBadShape, name, got, want)
	}
	return nil
}

// singleRound is the plan VecAdd and MatMul share: allocate three
// words-long arrays, move a and b into the first two, launch build's
// kernel over them on blocks blocks, move the third out into dst and
// synchronise. dst may alias a or b, which have landed by then.
func singleRound(h *simgpu.Host, words int, a, b, dst []Word, blocks int,
	build func(baseA, baseB, baseC int) (*kernel.Program, error)) error {
	if err := checkLen("a", len(a), words); err != nil {
		return err
	}
	if err := checkLen("b", len(b), words); err != nil {
		return err
	}
	if err := checkLen("dst", len(dst), words); err != nil {
		return err
	}
	var base [3]int
	for i := range base {
		var err error
		if base[i], err = h.Malloc(words); err != nil {
			return fmt.Errorf("%w: %v", ErrDoesNotFit, err)
		}
	}
	prog, err := build(base[0], base[1], base[2])
	if err != nil {
		return err
	}
	if err := h.TransferIn(base[0], a); err != nil {
		return err
	}
	if err := h.TransferIn(base[1], b); err != nil {
		return err
	}
	if _, err := h.Launch(prog, blocks); err != nil {
		return err
	}
	if err := h.TransferOutInto(dst, base[2]); err != nil {
		return err
	}
	h.EndRound()
	return nil
}
