package simgpu

import (
	"errors"
	"fmt"
	"math"
	"time"

	"atgpu/internal/kernel"
	"atgpu/internal/mem"
)

// Device is the simulated GPU: k' multiprocessors over one global memory.
// Multiprocessors can be marked failed (FailSM), after which launches
// degrade gracefully to the surviving SMs with exact results — blocks
// simply schedule over fewer multiprocessors.
type Device struct {
	cfg       Config
	global    *mem.Global
	arena     *mem.Arena
	failedSMs []bool
	numFailed int
	// collectSites enables per-access-site counters on launches
	// (KernelResult.Sites); off by default.
	collectSites bool

	// decCache holds the decoded execution form of each program launched
	// on this device (the warp width is fixed per device, so one decode
	// per program suffices).
	decCache map[*kernel.Program]*kernel.Decoded

	// uniformProver, when set, certifies that every block of a program
	// provably executes the same instruction trace modulo OpBlockID-derived
	// addressing with cross-block-disjoint global writes (the BlockUniform
	// certificate from internal/analyze, injected here as a callback
	// because analyze imports simgpu). Certified launches are eligible for
	// steady-state block memoization; see memo.go.
	uniformProver UniformProver
	// proverVerdicts caches certificate decisions per (program, blocks).
	proverVerdicts map[proverKey]bool
	// memoDisabled turns memoization off device-wide; the Host sets it
	// while a fault injector is armed, since faults must observe every
	// block individually.
	memoDisabled bool
	// memoSkips counts launches on which block memoization engaged.
	memoSkips int64
}

// UniformProver is the certificate callback consulted before enabling block
// memoization: it must return true only when every one of blocks thread
// blocks of prog provably executes the same instruction trace on cfg, with
// identical per-position transaction counts and latencies and mutually
// disjoint global writes. analyze.UniformProver is the canonical
// implementation.
type UniformProver func(prog *kernel.Program, cfg Config, blocks int) bool

type proverKey struct {
	prog   *kernel.Program
	blocks int
}

// SetUniformProver installs the BlockUniform certificate callback that
// gates block memoization. A nil prover (the default) disables memoization
// entirely; launches are then always fully simulated.
func (d *Device) SetUniformProver(p UniformProver) { d.uniformProver = p }

// MemoSkips reports how many launches on this device engaged block
// memoization (used by tests and benches to prove engagement, or the lack
// of it under fault injection).
func (d *Device) MemoSkips() int64 { return d.memoSkips }

// decoded returns the cached decoded form of prog, decoding on first use.
func (d *Device) decoded(prog *kernel.Program) (*kernel.Decoded, error) {
	if dec, ok := d.decCache[prog]; ok {
		return dec, nil
	}
	dec, err := kernel.Decode(prog, d.cfg.WarpWidth)
	if err != nil {
		return nil, err
	}
	if d.decCache == nil {
		d.decCache = make(map[*kernel.Program]*kernel.Decoded)
	}
	d.decCache[prog] = dec
	return dec, nil
}

// certified consults (and caches) the uniform prover's verdict.
func (d *Device) certified(prog *kernel.Program, blocks int) bool {
	k := proverKey{prog, blocks}
	if v, ok := d.proverVerdicts[k]; ok {
		return v
	}
	v := d.uniformProver(prog, d.cfg, blocks)
	if d.proverVerdicts == nil {
		d.proverVerdicts = make(map[proverKey]bool)
	}
	d.proverVerdicts[k] = v
	return v
}

// SetCollectSites toggles per-access-site memory counters on subsequent
// launches. Enabled, each KernelResult carries a SiteStat per load/store
// instruction that executed, for auditing static predictions site by site.
func (d *Device) SetCollectSites(on bool) { d.collectSites = on }

// Launch errors.
var (
	ErrSharedExceeded = errors.New("simgpu: block shared memory exceeds M")
	ErrDivergentLoop  = errors.New("simgpu: divergent uniform branch (loop condition differs across active lanes)")
	ErrKernelTrap     = errors.New("simgpu: kernel trap")
	ErrDeadlock       = errors.New("simgpu: scheduler deadlock (no warp ready or waiting)")
	// ErrLastActiveSM guards the degradation floor: the device refuses to
	// fail its last working multiprocessor.
	ErrLastActiveSM = errors.New("simgpu: cannot fail the last active SM")
)

// New creates a device with cfg's global memory allocated.
func New(cfg Config) (*Device, error) { return NewReusing(cfg, nil) }

// NewReusing creates a device whose global memory reuses buf's backing
// array when it holds cfg.GlobalWords words (see mem.NewGlobalReusing):
// the memory is cleared, so the device behaves exactly as one from New.
// The caller must not touch buf while the device is in use.
func NewReusing(cfg Config, buf []mem.Word) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := mem.NewGlobalReusing(buf, cfg.GlobalWords, cfg.WarpWidth)
	if err != nil {
		return nil, err
	}
	return &Device{cfg: cfg, global: g, arena: mem.NewArena(g), failedSMs: make([]bool, cfg.NumSMs)}, nil
}

// FailSM marks multiprocessor i as failed; subsequent launches run
// degraded on the remaining SMs. Failing an already-failed SM is a no-op;
// failing the last active SM is refused with ErrLastActiveSM so the device
// always retains a degradation floor of one multiprocessor.
func (d *Device) FailSM(i int) error {
	if i < 0 || i >= d.cfg.NumSMs {
		return fmt.Errorf("simgpu: SM index %d out of range [0,%d)", i, d.cfg.NumSMs)
	}
	if d.failedSMs[i] {
		return nil
	}
	if d.ActiveSMs() <= 1 {
		return ErrLastActiveSM
	}
	d.failedSMs[i] = true
	d.numFailed++
	return nil
}

// RestoreSMs returns all failed multiprocessors to service (a device
// reset/replacement between studies). Reset deliberately does NOT do this:
// SM health is hardware state, not round state.
func (d *Device) RestoreSMs() {
	for i := range d.failedSMs {
		d.failedSMs[i] = false
	}
	d.numFailed = 0
}

// ActiveSMs returns the number of working multiprocessors (≥ 1).
func (d *Device) ActiveSMs() int { return d.cfg.NumSMs - d.numFailed }

// FailedSMs lists the failed multiprocessor indices, ascending.
func (d *Device) FailedSMs() []int {
	if d.numFailed == 0 {
		return nil
	}
	out := make([]int, 0, d.numFailed)
	for i, f := range d.failedSMs {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Global returns the device global memory.
func (d *Device) Global() *mem.Global { return d.global }

// Arena returns the device's global-memory allocator.
func (d *Device) Arena() *mem.Arena { return d.arena }

// Reset clears global memory contents and the allocator, modelling the
// device reset portion of the model's σ synchronisation cost.
func (d *Device) Reset() {
	d.arena.Reset()
	raw := d.global.Raw()
	for i := range raw {
		raw[i] = 0
	}
}

// smState is one streaming multiprocessor's runtime state during a launch.
type smState struct {
	resident []*warp
	rr       int // round-robin issue pointer
}

// launchState carries the per-launch machinery.
type launchState struct {
	d     *Device
	prog  *kernel.Program
	width int
	// numBlocks is H, the logical launch size (what OpNumBlocks reads).
	// schedBlocks is how many blocks the scheduler actually simulates; it
	// starts equal to numBlocks and is reduced when a steady-state period
	// skip is applied (memo.go), with the elided blocks' statistics scaled
	// in and their data effects replayed after the run.
	numBlocks   int
	schedBlocks int
	nextBlock   int
	sms         []*smState
	// smIDs maps launch-state SM slots to physical SM indices; with
	// failed SMs the slots cover only the active multiprocessors, so
	// trace and warp bookkeeping still report hardware indices.
	smIDs     []int
	freeWarps []*warp
	cycle     int64
	stats     KernelStats

	// memFree is the cycle at which the device-wide memory controller can
	// accept the next transaction (bandwidth modelling; see
	// Config.MemServiceCycles).
	memFree int64

	// tracer records scheduling events when non-nil.
	tracer *Tracer

	// bankCounts is scratch for shared-memory conflict analysis;
	// blockScratch is scratch for global coalescing analysis. Both are
	// sized from the launch width.
	bankCounts   []int
	blockScratch []int

	// sites holds per-instruction memory counters when site collection is
	// enabled (indexed by pc; nil otherwise).
	sites []SiteStat

	// dec is the decoded execution form the interpreter runs.
	dec *kernel.Decoded

	// memo holds steady-state period detection for analyzer-certified
	// uniform launches; nil when memoization is not eligible.
	memo *memoState
}

// Launch runs numBlocks thread blocks of prog to completion and returns the
// simulated time and statistics. Global memory contents are mutated in
// place. The launch fails if the program is invalid, if a block's shared
// allocation exceeds M (the model forbids such algorithms), or if the
// kernel traps (bad address, division by zero, divergent uniform branch).
func (d *Device) Launch(prog *kernel.Program, numBlocks int) (KernelResult, error) {
	return d.LaunchTraced(prog, numBlocks, nil)
}

// LaunchTraced is Launch with scheduling events recorded into tr (may be
// nil for no tracing). Results are identical; only observability differs.
func (d *Device) LaunchTraced(prog *kernel.Program, numBlocks int, tr *Tracer) (KernelResult, error) {
	if err := prog.Validate(); err != nil {
		return KernelResult{}, err
	}
	if numBlocks < 0 {
		return KernelResult{}, fmt.Errorf("simgpu: negative block count %d", numBlocks)
	}
	occ := d.cfg.Occupancy(prog.SharedWords)
	if occ == 0 {
		return KernelResult{}, fmt.Errorf("%w: kernel %s wants %d words, M=%d",
			ErrSharedExceeded, prog.Name, prog.SharedWords, d.cfg.SharedWords)
	}
	ls := &launchState{
		d:            d,
		prog:         prog,
		width:        d.cfg.WarpWidth,
		numBlocks:    numBlocks,
		schedBlocks:  numBlocks,
		sms:          make([]*smState, 0, d.ActiveSMs()),
		smIDs:        make([]int, 0, d.ActiveSMs()),
		bankCounts:   make([]int, d.cfg.WarpWidth),
		blockScratch: make([]int, d.cfg.WarpWidth),
		tracer:       tr,
	}
	dec, err := d.decoded(prog)
	if err != nil {
		return KernelResult{}, err
	}
	ls.dec = dec
	for i := 0; i < d.cfg.NumSMs; i++ {
		if d.failedSMs[i] {
			continue
		}
		ls.sms = append(ls.sms, &smState{})
		ls.smIDs = append(ls.smIDs, i)
	}
	ls.stats.OccupancyLimit = occ
	if d.collectSites {
		ls.sites = make([]SiteStat, len(prog.Instrs))
	}

	if numBlocks == 0 {
		return KernelResult{Time: 0, Stats: ls.stats}, nil
	}
	// Block memoization: only for untraced, site-free launches of
	// analyzer-certified kernels, and never while faults are armed. Every
	// disable condition falls back to plain full simulation.
	if tr == nil && !d.collectSites && !d.memoDisabled &&
		numBlocks >= memoMinBlocks && d.uniformProver != nil &&
		d.certified(prog, numBlocks) {
		ls.memo = &memoState{}
	}
	if err := ls.run(occ); err != nil {
		return KernelResult{}, err
	}
	if err := ls.finishMemo(); err != nil {
		return KernelResult{}, err
	}
	ls.stats.Cycles = ls.cycle
	secs := d.cfg.CyclesToSeconds(ls.cycle)
	return KernelResult{
		Time:  time.Duration(secs * float64(time.Second)),
		Stats: ls.stats,
		Sites: ls.collectedSites(),
	}, nil
}

// collectedSites compacts the per-pc site table into the touched sites,
// ascending by pc, filling in opcode and source line.
func (ls *launchState) collectedSites() []SiteStat {
	if ls.sites == nil {
		return nil
	}
	var out []SiteStat
	for pc := range ls.sites {
		if ls.sites[pc].Accesses == 0 {
			continue
		}
		s := ls.sites[pc]
		s.PC = pc
		s.Line = ls.prog.Line(pc)
		s.Op = ls.prog.Instrs[pc].Op
		out = append(out, s)
	}
	return out
}

// run drives the cycle loop until all blocks retire.
func (ls *launchState) run(occ int) error {
	retired := false
	for {
		if retired && ls.memo != nil {
			// A block completed since the last fingerprint: the scheduler
			// is at a retire boundary, the natural place to look for a
			// steady-state period (memo.go).
			ls.memo.observe(ls)
			retired = false
		}
		ls.refill(occ)
		done := true
		for _, sm := range ls.sms {
			if len(sm.resident) > 0 {
				done = false
				break
			}
		}
		if done {
			if ls.nextBlock >= ls.schedBlocks {
				return nil
			}
			continue // refill will place more blocks next iteration
		}

		issuedAny := false
		for _, sm := range ls.sms {
			if len(sm.resident) == 0 {
				if ls.nextBlock >= ls.schedBlocks {
					ls.stats.IdleCycles++
				}
				continue
			}
			w := sm.pickReady(ls.cycle)
			if w == nil {
				ls.stats.StallCycles++
				continue
			}
			issuedAny = true
			if err := ls.execDec(w); err != nil {
				return fmt.Errorf("%w: kernel %s block %d pc %d: %w",
					ErrKernelTrap, ls.prog.Name, w.blockID, w.pc, err)
			}
			if w.state == wDone {
				sm.retire(w)
				ls.recycle(w)
				retired = true
			}
		}

		if issuedAny {
			ls.cycle++
			continue
		}
		// No SM could issue: event-driven skip to the earliest memory
		// completion instead of spinning cycle by cycle.
		next := int64(math.MaxInt64)
		for _, sm := range ls.sms {
			for _, w := range sm.resident {
				if w.state == wWaiting && w.readyAt < next {
					next = w.readyAt
				}
			}
		}
		if next == math.MaxInt64 {
			return ErrDeadlock
		}
		if ls.d.cfg.DisableEventSkip {
			// Ablation mode: naive per-cycle stepping.
			next = ls.cycle + 1
		}
		if next <= ls.cycle {
			next = ls.cycle + 1
		}
		for _, sm := range ls.sms {
			if len(sm.resident) > 0 {
				ls.stats.StallCycles += next - ls.cycle - 1
			}
		}
		ls.cycle = next
	}
}

// refill tops every SM up to the occupancy limit from the pending block
// queue, assigning blocks round-robin across SMs the way a grid scheduler
// balances load.
func (ls *launchState) refill(occ int) {
	for {
		placed := false
		for smIdx, sm := range ls.sms {
			if ls.nextBlock >= ls.schedBlocks {
				return
			}
			if len(sm.resident) >= occ {
				continue
			}
			w, err := ls.acquire()
			if err != nil {
				// Allocation of warp scaffolding cannot fail for a
				// validated config; treat defensively as full.
				return
			}
			w.reset(ls.nextBlock)
			w.smIdx = ls.smIDs[smIdx]
			w.traceIdx = -1
			if ls.tracer != nil {
				w.traceIdx = ls.tracer.onSchedule(ls.nextBlock, w.smIdx, ls.cycle)
			}
			ls.nextBlock++
			sm.resident = append(sm.resident, w)
			if len(sm.resident) > ls.stats.MaxResidentBlocks {
				ls.stats.MaxResidentBlocks = len(sm.resident)
			}
			placed = true
		}
		if !placed {
			return
		}
	}
}

func (ls *launchState) acquire() (*warp, error) {
	if n := len(ls.freeWarps); n > 0 {
		w := ls.freeWarps[n-1]
		ls.freeWarps = ls.freeWarps[:n-1]
		return w, nil
	}
	return newWarp(ls.width, ls.prog.NumRegs, ls.prog.SharedWords)
}

func (ls *launchState) recycle(w *warp) {
	ls.stats.BlocksExecuted++
	if w.instrs > ls.stats.MaxWarpInstrs {
		ls.stats.MaxWarpInstrs = w.instrs
	}
	if w.atomSer > ls.stats.MaxWarpAtomicSerial {
		ls.stats.MaxWarpAtomicSerial = w.atomSer
	}
	if ls.tracer != nil {
		ls.tracer.onRetire(w.traceIdx, ls.cycle, w.instrs)
	}
	ls.freeWarps = append(ls.freeWarps, w)
}

// pickReady returns the next issuable warp after waking any whose memory
// request has completed, scanning round-robin from the last issue point.
// The scan index wraps by comparison rather than modulo: the pick runs
// once per SM per cycle.
func (sm *smState) pickReady(cycle int64) *warp {
	n := len(sm.resident)
	idx := sm.rr
	if idx >= n {
		idx %= n // retire keeps rr < n; this only guards the invariant
	}
	for i := 0; i < n; i++ {
		w := sm.resident[idx]
		idx++
		if idx == n {
			idx = 0
		}
		if w.state == wWaiting && w.readyAt <= cycle {
			w.state = wReady
		}
		if w.state == wReady {
			sm.rr = idx
			return w
		}
	}
	return nil
}

// retire removes w from the SM.
func (sm *smState) retire(w *warp) {
	for i, r := range sm.resident {
		if r == w {
			sm.resident = append(sm.resident[:i], sm.resident[i+1:]...)
			if sm.rr > i {
				sm.rr--
			}
			if len(sm.resident) > 0 {
				sm.rr %= len(sm.resident)
			} else {
				sm.rr = 0
			}
			return
		}
	}
}
