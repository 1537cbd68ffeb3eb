package simgpu

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"

	"atgpu/internal/kernel"
)

// Block memoization
//
// For a kernel carrying the analyzer's BlockUniform certificate, every
// thread block issues the same instruction trace with the same per-position
// transaction counts and latencies, and the blocks' global writes are
// mutually disjoint. Under those guarantees the scheduler — warp states,
// round-robin pointers, the shared memory-controller horizon — is a
// deterministic function of its *relative* state: each warp's trace
// position, its readiness offset from the current cycle, and its block's
// offset from the refill frontier. Absolute block IDs and register contents
// cannot influence it.
//
// The device exploits this by fingerprinting the relative scheduler state
// at block-retire boundaries. When a fingerprint recurs, the launch has
// entered a steady state with period T cycles and d blocks: every further T
// cycles the scheduler returns to the same relative state having placed d
// more blocks and accrued the same statistics delta. Instead of simulating
// all K remaining repetitions, the launch (a) shrinks the scheduler's block
// budget by K*d so the simulation proceeds — unmodified, on real data —
// through the warmup, one remaining stretch of periods, and the exact same
// drain tail, and (b) afterwards adds K*T cycles and K times the period's
// additive statistics, and (c) replays the K*d elided blocks through a
// data-only interpreter so global memory ends byte-identical (certificate
// disjointness makes the replay order irrelevant, so the replay runs on
// several goroutines). Timing, counters, and memory match full simulation
// exactly; the differential tests pin this.
//
// Memoization never engages when a tracer is attached (traces carry
// per-block detail), when site collection is on, when a fault injector is
// armed, when the program is not certified, or when the launch is too small
// to have a steady state worth skipping.

const (
	// memoMinBlocks is the smallest launch worth fingerprinting.
	memoMinBlocks = 64
	// memoMaxSnaps bounds the stored fingerprint set; exotic schedules
	// that never recur within the budget give up and simulate fully.
	memoMaxSnaps = 4096
	// memoReplayMinChunk is the fewest elided blocks one replay goroutine
	// takes; a shorter replay runs serially.
	memoReplayMinChunk = 16
)

// memoSnap is one recorded scheduler fingerprint.
type memoSnap struct {
	state     []int64
	cycle     int64
	nextBlock int
	stats     KernelStats
}

// memoState carries period detection for one launch.
type memoState struct {
	snaps map[uint64][]memoSnap
	seed  maphash.Seed
	enc   []int64
	count int
	off   bool

	// Applied skip, consumed by finishMemo.
	applied      bool
	periods      int64
	periodCycles int64
	delta        KernelStats
	replayFrom   int
}

// observe fingerprints the scheduler's relative state at a retire boundary
// and applies a period skip when the state recurs.
func (m *memoState) observe(ls *launchState) {
	if m.off || m.applied {
		return
	}
	remaining := ls.schedBlocks - ls.nextBlock
	if remaining <= 0 {
		return
	}
	if m.count >= memoMaxSnaps {
		m.off = true
		return
	}
	m.enc = encodeRelState(ls, m.enc[:0])
	if m.snaps == nil {
		m.snaps = make(map[uint64][]memoSnap)
		m.seed = maphash.MakeSeed()
	}
	var h maphash.Hash
	h.SetSeed(m.seed)
	for _, v := range m.enc {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	key := h.Sum64()
	recurred := false
	for _, s := range m.snaps[key] {
		if !equalStates(s.state, m.enc) {
			continue
		}
		d := ls.nextBlock - s.nextBlock
		if d <= 0 {
			continue
		}
		recurred = true
		// Skip as many whole periods as possible while leaving at least
		// two periods' worth of blocks so the remaining simulation still
		// walks through a full period and the genuine drain tail.
		k := int64(remaining)/int64(d) - 2
		if k < 1 {
			continue
		}
		m.applied = true
		m.periods = k
		m.periodCycles = ls.cycle - s.cycle
		m.delta = diffAdditive(ls.stats, s.stats)
		ls.schedBlocks -= int(k) * d
		m.replayFrom = ls.schedBlocks
		ls.d.memoSkips++
		return
	}
	if recurred {
		// Too few blocks remain to skip a period. The schedule repeats from
		// here with the same period and every later boundary has fewer
		// blocks left, so no later skip fits either: stop fingerprinting.
		m.off = true
		return
	}
	snap := memoSnap{
		state:     append([]int64(nil), m.enc...),
		cycle:     ls.cycle,
		nextBlock: ls.nextBlock,
		stats:     ls.stats,
	}
	m.snaps[key] = append(m.snaps[key], snap)
	m.count++
}

// encodeRelState flattens everything the scheduler's future behaviour can
// depend on, relative to the current cycle and refill frontier: per-SM
// round-robin pointers and resident warps (block offset, trace position,
// state, readiness offset) plus the memory-controller horizon. Register
// contents and absolute block IDs are deliberately excluded — the
// BlockUniform certificate proves they cannot steer scheduling.
func encodeRelState(ls *launchState, enc []int64) []int64 {
	memRel := ls.memFree - ls.cycle
	if memRel < 0 {
		// A drained controller behaves identically at any offset ≤ 0.
		memRel = 0
	}
	enc = append(enc, memRel)
	for _, sm := range ls.sms {
		enc = append(enc, int64(sm.rr), int64(len(sm.resident)))
		for _, w := range sm.resident {
			rel := int64(0)
			if w.state == wWaiting {
				rel = w.readyAt - ls.cycle
			}
			enc = append(enc,
				int64(w.blockID-ls.nextBlock),
				int64(w.pc),
				w.instrs,
				int64(w.state),
				rel)
		}
	}
	return enc
}

func equalStates(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffAdditive returns cur-prev over the additive KernelStats fields.
// Max/occupancy fields are excluded: within a steady-state period they are
// already achieved by the remaining simulation.
func diffAdditive(cur, prev KernelStats) KernelStats {
	return KernelStats{
		InstructionsIssued:  cur.InstructionsIssued - prev.InstructionsIssued,
		LaneOps:             cur.LaneOps - prev.LaneOps,
		GlobalAccesses:      cur.GlobalAccesses - prev.GlobalAccesses,
		GlobalTransactions:  cur.GlobalTransactions - prev.GlobalTransactions,
		UncoalescedAccesses: cur.UncoalescedAccesses - prev.UncoalescedAccesses,
		SharedAccesses:      cur.SharedAccesses - prev.SharedAccesses,
		BankConflicts:       cur.BankConflicts - prev.BankConflicts,
		Barriers:            cur.Barriers - prev.Barriers,
		DivergentBranches:   cur.DivergentBranches - prev.DivergentBranches,
		StallCycles:         cur.StallCycles - prev.StallCycles,
		IdleCycles:          cur.IdleCycles - prev.IdleCycles,
		BlocksExecuted:      cur.BlocksExecuted - prev.BlocksExecuted,
	}
}

// addScaled folds k repetitions of the additive delta into s.
func (s *KernelStats) addScaled(d KernelStats, k int64) {
	s.InstructionsIssued += k * d.InstructionsIssued
	s.LaneOps += k * d.LaneOps
	s.GlobalAccesses += k * d.GlobalAccesses
	s.GlobalTransactions += k * d.GlobalTransactions
	s.UncoalescedAccesses += k * d.UncoalescedAccesses
	s.SharedAccesses += k * d.SharedAccesses
	s.BankConflicts += k * d.BankConflicts
	s.Barriers += k * d.Barriers
	s.DivergentBranches += k * d.DivergentBranches
	s.StallCycles += k * d.StallCycles
	s.IdleCycles += k * d.IdleCycles
	s.BlocksExecuted += k * d.BlocksExecuted
}

// finishMemo applies a recorded period skip after the (shrunken) simulation
// completes: scale in the skipped periods' time and counters, then replay
// the elided blocks' data effects.
func (ls *launchState) finishMemo() error {
	m := ls.memo
	if m == nil || !m.applied {
		return nil
	}
	ls.cycle += m.periods * m.periodCycles
	ls.stats.addScaled(m.delta, m.periods)
	return ls.memoReplay(m.replayFrom, ls.numBlocks)
}

// memoReplay runs blocks [from, to) through the data-only interpreter so
// their register-file-to-memory effects land exactly as full simulation
// would have produced them. The certificate guarantees the blocks' global
// writes are disjoint from each other and from the simulated blocks', so
// replay order is irrelevant: the range is split into up to GOMAXPROCS
// contiguous chunks of at least memoReplayMinChunk blocks, each replayed on
// its own warp. A failure reports the lowest failing block, the one a
// serial replay would have stopped at.
func (ls *launchState) memoReplay(from, to int) error {
	n := to - from
	warps := make([]*warp, max(1, min(runtime.GOMAXPROCS(0), n/memoReplayMinChunk)))
	for i := range warps {
		w, err := ls.acquire()
		if err != nil {
			return err
		}
		warps[i] = w
	}
	k := len(warps)
	errs := make([]error, k)
	// Settle global memory's pending zeroes here, so the chunks' Raw
	// calls only read (see mem.NewGlobalReusing).
	ls.d.global.Raw()
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ls.replayWith(warps[i], from+i*n/k, from+(i+1)*n/k)
		}(i)
	}
	// Chunk 0 runs on the calling goroutine, which would only wait. The
	// caller keeps its OS thread: readied by the last chunk to finish, it
	// would otherwise resume on that chunk's thread, and the rest of the
	// run with it, on a CPU that may be slower.
	runtime.LockOSThread()
	errs[0] = ls.replayWith(warps[0], from, from+n/k)
	wg.Wait()
	runtime.UnlockOSThread()
	ls.freeWarps = append(ls.freeWarps, warps...)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayWith replays blocks [from, to) in order on w, stopping at the
// first failure. It writes nothing but w and global memory, so disjoint
// ranges may run concurrently.
func (ls *launchState) replayWith(w *warp, from, to int) error {
	for blk := from; blk < to; blk++ {
		w.reset(blk)
		if err := ls.replayBlock(w); err != nil {
			return fmt.Errorf("%w: kernel %s block %d pc %d (memo replay): %w",
				ErrKernelTrap, ls.prog.Name, blk, w.pc, err)
		}
	}
	return nil
}

// replayBlock executes one block's decoded trace for data effects only: no
// statistics, no latencies, no scheduling. Control flow, traps and memory
// bounds behave exactly as in execDec. The instruction budget is bounded by
// the longest trace the real simulation observed — the certificate proves
// all blocks trace identically, so exceeding it means the certificate was
// wrong and the launch fails loudly rather than diverge silently.
func (ls *launchState) replayBlock(w *warp) error {
	ins := ls.dec.Ins
	budget := ls.stats.MaxWarpInstrs
	width := ls.width
	regs := w.regs
	pc := 0
	var instrs int64
	for {
		if pc < 0 || pc >= len(ins) {
			w.pc = pc
			return errPCRange
		}
		if instrs >= budget {
			w.pc = pc
			return fmt.Errorf("memo replay exceeded %d instructions (certificate violated)", budget)
		}
		in := &ins[pc]
		instrs++

		switch in.Op {
		case kernel.OpLdGlobal, kernel.OpStGlobal, kernel.OpLdShared, kernel.OpStShared:
			if err := ls.replayMem(w, in); err != nil {
				w.pc = pc
				return err
			}

		case kernel.OpBarrier:
			// data-free

		case kernel.OpJump:
			pc = int(in.Target)
			continue

		case kernel.OpBrNZ:
			taken, uniform, any := w.uniformCond(int(in.A))
			if !any {
				w.pc = pc
				return errNoActiveBr
			}
			if !uniform {
				w.pc = pc
				return ErrDivergentLoop
			}
			if taken {
				pc = int(in.Target)
				continue
			}

		case kernel.OpIfBegin:
			a := int(in.A)
			anyTrue := false
			for l := 0; l < width; l++ {
				if w.active[l] && regs[a+l] != 0 {
					anyTrue = true
					break
				}
			}
			if !anyTrue {
				pc = int(in.Target)
				continue
			}
			w.pushMask()
			for l := 0; l < width; l++ {
				if w.active[l] && regs[a+l] == 0 {
					w.active[l] = false
					w.activeN--
				}
			}

		case kernel.OpIfEnd:
			if !w.popMask() {
				w.pc = pc
				return errMaskPop
			}

		case kernel.OpHalt:
			return nil

		default:
			if err := ls.execALU(w, in); err != nil {
				w.pc = pc
				return err
			}
		}
		pc++
	}
}

// replayMem moves one memory instruction's data for replayBlock, with the
// interpreter's bounds checks and trap text. A fully active warp moves
// through the interpreter's execLoad/execStore. Replay does not price the
// access, so it skips classification and moves every column lane by lane:
// on a 32-lane column the classifying pass costs more than the copy it
// enables saves. A masked warp moves lane by lane here.
func (ls *launchState) replayMem(w *warp, in *kernel.DInstr) error {
	width := ls.width
	regs := w.regs
	mem := ls.d.global.Raw()
	rangeErr := globalRangeErr
	if in.Op == kernel.OpLdShared || in.Op == kernel.OpStShared {
		mem = w.shared.Raw()
		rangeErr = sharedRangeErr
	}
	load := in.Op == kernel.OpLdGlobal || in.Op == kernel.OpLdShared
	a, d, s := int(in.A), int(in.D), int(in.B)

	if w.activeN == width {
		ac := regs[a : a+width : a+width]
		var bad int
		if load {
			bad = execLoad(regs[d:d+width], ac, mem, accessScattered)
		} else {
			bad = execStore(mem, ac, regs[s:s+width], accessScattered)
		}
		if bad >= 0 {
			return rangeErr(in.Op, bad, ac[bad], len(mem))
		}
		return nil
	}
	for l := 0; l < width; l++ {
		if !w.active[l] {
			continue
		}
		addr := regs[a+l]
		if uint64(addr) >= uint64(len(mem)) {
			return rangeErr(in.Op, l, addr, len(mem))
		}
		if load {
			regs[d+l] = mem[addr]
		} else {
			mem[addr] = regs[s+l]
		}
	}
	return nil
}
