// Package analyze statically checks kernels against the abstract machine
// ATGPU(p, b, M, G) before they run. A shared abstract interpretation —
// per-lane interval values with may/must SIMT masks, executed block by
// block — feeds five analyzers:
//
//   - race: shared-memory conflicts between lanes with no barrier between,
//   - divergence: barriers (and uniform branches) reachable under
//     thread-dependent control flow,
//   - bounds: out-of-range global/shared addresses and division traps,
//   - memory: per-site bank-conflict and coalescing-degree prediction,
//   - cost: the kernel terms of the paper's Expressions (1) and (2)
//     predicted from static counters.
//
// Per-lane interval vectors strictly generalise affine forms in
// (tid, bid, bdim): an affine value a·tid+b is just the vector of its lane
// values, each kept exact, and non-affine thread expressions (tid%k, tid^m)
// stay exact too. On kernels whose branches and addresses never depend on
// loaded data the interpretation is bit-identical to the simulator, so the
// predicted scheduling-independent counters match the device's observed
// ones exactly; Report.Precise records when that guarantee holds.
package analyze

import (
	"errors"
	"fmt"

	"atgpu/internal/kernel"
)

// ErrBadWidth reports a machine width outside the simulator's 1..64 range.
var ErrBadWidth = errors.New("analyze: machine width must be in 1..64")

// ErrBadBlocks reports a negative launch size.
var ErrBadBlocks = errors.New("analyze: negative block count")

// analysis accumulates the whole-launch state shared by every block run.
type analysis struct {
	prog     *kernel.Program
	opt      Options
	stats    StaticStats
	findings []Finding
	seen     map[findKey]struct{}
	// sites holds one accumulator per memory or atomic instruction, in pc
	// order; siteOf maps a pc to its slot plus one (0: not a memory pc).
	sites   []Site
	siteOf  []int32
	precise bool
	aborted bool
}

type findKey struct {
	analyzer string
	pc       int
}

// reportf records a finding, deduplicated by (analyzer, pc): one diagnostic
// per analyzer per instruction, witnessed by its first occurrence.
func (a *analysis) reportf(f Finding, format string, args ...interface{}) {
	key := findKey{f.Analyzer, f.PC}
	if _, dup := a.seen[key]; dup {
		return
	}
	a.seen[key] = struct{}{}
	if len(a.findings) >= a.opt.maxFindings() {
		return
	}
	f.Message = fmt.Sprintf(format, args...)
	if f.Line == 0 {
		f.Line = a.prog.Line(f.PC)
	}
	a.findings = append(a.findings, f)
}

// site returns the accumulator for a memory instruction, creating it on
// first access.
func (a *analysis) site(pc int, op kernel.Op) *Site {
	s := &a.sites[a.siteOf[pc]-1]
	if s.Accesses == 0 {
		s.PC = pc
		s.Line = a.prog.Line(pc)
		s.Op = op
		s.OpName = op.String()
	}
	return s
}

// newAnalysis prepares the launch state of an analysis of prog, one site
// accumulator per memory or atomic instruction.
func newAnalysis(prog *kernel.Program, opt Options) *analysis {
	a := &analysis{
		prog:    prog,
		opt:     opt,
		seen:    make(map[findKey]struct{}),
		siteOf:  make([]int32, len(prog.Instrs)),
		precise: true,
	}
	n := int32(0)
	for pc, in := range prog.Instrs {
		if in.Op.IsMemory() || in.Op.IsAtomic() {
			n++
			a.siteOf[pc] = n
		}
	}
	a.sites = make([]Site, n)
	return a
}

// Program statically analyses one launch of prog with opt.Blocks thread
// blocks on opt.Machine. It returns an error only for malformed inputs (an
// invalid program, width, or block count); everything the analyzers have to
// say about a well-formed program — including conditions the device would
// trap on — comes back as Findings in the Report.
func Program(prog *kernel.Program, opt Options) (*Report, error) {
	if prog == nil {
		return nil, errors.New("analyze: nil program")
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if opt.Machine.Width < 1 || opt.Machine.Width > 64 {
		return nil, ErrBadWidth
	}
	if opt.Blocks < 0 {
		return nil, ErrBadBlocks
	}

	a := newAnalysis(prog, opt)
	rep := &Report{
		Kernel: prog.Name,
		Width:  opt.Machine.Width,
		Blocks: opt.Blocks,
	}

	// The device records the occupancy bound before deciding whether any
	// block runs, and refuses the launch outright when a block's shared
	// allocation exceeds M.
	occ := opt.Machine.Occupancy(prog.SharedWords)
	a.stats.OccupancyLimit = occ
	if occ == 0 && prog.SharedWords > 0 {
		a.reportf(Finding{Analyzer: AnalyzerCost, Severity: SevError, PC: 0},
			"kernel allocates %d shared words per block but the machine has M=%d: no block fits, the device refuses this launch",
			prog.SharedWords, opt.Machine.SharedWords)
		a.aborted = true
	}

	if !a.aborted {
		br := newBlockRun(a, 0)
		for blk := 0; blk < opt.Blocks; blk++ {
			if blk > 0 {
				br.reset(blk)
			}
			if !br.run() {
				// The device trap (or budget stop) aborts the whole launch;
				// counters from completed blocks stay, mirroring nothing —
				// the launch never reports stats — so mark approximate.
				a.aborted = true
				a.precise = false
				break
			}
		}
	}

	sortFindings(a.findings)
	rep.Findings = a.findings
	rep.Stats = a.stats
	rep.Precise = a.precise && !a.aborted
	// The touched sites, compacted in place: a.sites is not read again.
	sites := a.sites[:0]
	for _, s := range a.sites {
		if s.Accesses > 0 {
			sites = append(sites, s)
		}
	}
	if len(sites) > 0 {
		rep.Sites = sites
	}
	if opt.Cost != nil {
		rep.Cost = costEstimate(*opt.Cost, opt.Machine, prog.SharedWords, opt.Blocks, a.stats)
	}
	return rep, nil
}
