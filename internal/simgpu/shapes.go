package simgpu

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"atgpu/internal/kernel"
)

// Shape memo
//
// A BlockUniform certificate proves that every block of a launch issues
// one data-independent trace with identical per-position costs. So the
// timing of a certified launch — its cycles, its KernelStats and the
// blocks its period skip elides — is a function of the launch's shape
// alone: the program's content, the device Config, the grid and the set
// of active SMs. The data never enter it, as the model's cost of a round
// depends on n, blocks and transactions, never on the values.
//
// A ShapeMemo keeps that function's values, and the prover's verdicts,
// per shape. A launch of a shape that is certified and already timed
// (a hit) skips the proof, block 0's cost trace and the cursor timing: it
// replays every block's data, block 0 included, on the replay queue and
// returns the stored timing. Each stored value is an earlier output of the
// same function of the same key, so a hit is exact. A hit whose replay
// fails runs the launch again down the miss path, which reports the
// failure as a launch that never hit would: certified blocks store to
// disjoint words and load only words no block stores, so running a block
// twice leaves memory as running it once.
//
// A shape's first launch runs as it would without the memo: proved from
// memoMinWaves waves up, and memoized when certified. A smaller launch is
// not proved at first sight, since the scheduled interpreter times it
// anyway; its timing is kept, and the shape is proved when it comes back.
// If it is certified, that second launch is already a hit.

// shapeMemoBytes bounds the bytes a ShapeMemo keeps. An entry costs its
// program's instructions (24 bytes each) and about 460 bytes beside: 7 KB
// for matmul's 280 instructions, 1 KB for vecadd's 23. The default sweeps
// of all nine workloads on the three presets, calibration included, keep
// 297 shapes in 630 KB. A memo that would outgrow the bound starts again
// empty.
const shapeMemoBytes = 1 << 20

// ShapeMemo memoizes, per launch shape, the BlockUniform verdict of its
// prover and the timing of the shape's certified launches. It is safe for
// concurrent use, so devices on many goroutines may share one.
type ShapeMemo struct {
	prover UniformProver
	hits   atomic.Int64
	mu     sync.Mutex
	shapes map[shapeHead][]*shapeEntry
	bytes  int
}

// NewShapeMemo returns an empty memo whose verdicts come from prover.
func NewShapeMemo(prover UniformProver) *ShapeMemo { return &ShapeMemo{prover: prover} }

// Hits reports how many launches have taken their timing from the memo
// and replayed every block's data.
func (m *ShapeMemo) Hits() int64 { return m.hits.Load() }

// shapeHead is the part of a launch's shape a map keys on; the
// instructions and the failed SMs enter it only through their hash, and
// each entry under it holds them to compare in full.
type shapeHead struct {
	cfg          Config
	blocks       int
	name         string
	regs, shared int
	sum          uint64
}

// shapeEntry is one shape: the rest of its key, the prover's verdict and,
// once a launch of it has completed, that launch's timing.
type shapeEntry struct {
	instrs []kernel.Instr
	failed []bool
	proof  shapeProof
	timed  bool
	timing shapeTiming
}

// shapeProof is a shape's BlockUniform verdict.
type shapeProof uint8

const (
	proofUnknown shapeProof = iota // not asked yet
	proofRefused
	proofCertified
)

// shapeTiming is what a launch of the shape returned: its statistics —
// Cycles, and MaxWarpInstrs, the instructions every block issues, among
// them — and what it added to the device's MemoSkips and MemoElided.
type shapeTiming struct {
	stats         KernelStats
	skips, elided int64
}

// shapeEntryBytes is what an entry costs beside its instructions, failed
// set and names: the entry, its head and the map's slot.
const shapeEntryBytes = int(unsafe.Sizeof(shapeEntry{})+unsafe.Sizeof(shapeHead{})) + 64

// shapeSum hashes instructions and a failed-SM set in place, as FNV-1a
// over 64-bit words.
func shapeSum(instrs []kernel.Instr, failed []bool) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, in := range instrs {
		h = (h ^ (uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Ra)<<16 | uint64(in.Rb)<<24 | uint64(uint32(in.Target))<<32)) * prime
		h = (h ^ uint64(in.Imm)) * prime
	}
	for i, f := range failed {
		if f {
			h = (h ^ uint64(i)) * prime
		}
	}
	return h
}

// shapePlan is what the memo says of one launch.
type shapePlan struct {
	// entry is the launch's shape; its timing is stored there once the
	// launch completes, unless the shape is refused.
	entry *shapeEntry
	proof shapeProof
	// hit is set when the shape is certified and timed; timing is then
	// the stored timing.
	hit    bool
	timing shapeTiming
}

// plan finds or adds the shape of a launch of blocks blocks of prog on a
// device of cfg with failed SMs, and proves it if it has not been proved
// and the launch is big (memoMinWaves waves or more) or the shape was
// seen before. The prover runs outside the lock; two launches that prove
// one shape at once both store the same verdict.
func (m *ShapeMemo) plan(prog *kernel.Program, cfg Config, blocks int, failed []bool, big bool) shapePlan {
	e, seen := m.entry(prog, cfg, blocks, failed)
	m.mu.Lock()
	p := shapePlan{entry: e, proof: e.proof, hit: e.proof == proofCertified && e.timed, timing: e.timing}
	m.mu.Unlock()
	if p.proof != proofUnknown || !big && !seen {
		return p
	}
	p.proof = proofRefused
	if m.prover(prog, cfg, blocks) {
		p.proof = proofCertified
	}
	m.mu.Lock()
	e.proof = p.proof
	p.hit = p.proof == proofCertified && e.timed
	p.timing = e.timing
	m.mu.Unlock()
	return p
}

// entry returns the entry of the shape and whether it was there already,
// adding it if not.
func (m *ShapeMemo) entry(prog *kernel.Program, cfg Config, blocks int, failed []bool) (*shapeEntry, bool) {
	h := shapeHead{cfg, blocks, prog.Name, prog.NumRegs, prog.SharedWords, shapeSum(prog.Instrs, failed)}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.shapes[h] {
		if slices.Equal(e.instrs, prog.Instrs) && slices.Equal(e.failed, failed) {
			return e, true
		}
	}
	e := &shapeEntry{instrs: slices.Clone(prog.Instrs), failed: slices.Clone(failed)}
	size := shapeEntryBytes + len(e.instrs)*int(unsafe.Sizeof(kernel.Instr{})) + len(failed) + len(prog.Name) + len(cfg.Name)
	if m.bytes+size > shapeMemoBytes {
		m.shapes, m.bytes = nil, 0
	}
	if size > shapeMemoBytes {
		return e, false
	}
	if m.shapes == nil {
		m.shapes = make(map[shapeHead][]*shapeEntry)
	}
	m.shapes[h] = append(m.shapes[h], e)
	m.bytes += size
	return e, false
}

// store keeps t as the timing of p's shape, unless the shape is refused.
func (m *ShapeMemo) store(p shapePlan, t shapeTiming) {
	if p.proof == proofRefused {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p.entry.timed, p.entry.timing = true, t
}
