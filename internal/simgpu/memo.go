package simgpu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
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
// more blocks and accrued the same statistics delta. With r blocks left,
// the launch skips all K = r/d whole periods that fit: it (a) shrinks the
// scheduler's block budget by K*d so the simulation proceeds — unmodified,
// on real data — from the warmup and the one period that revealed the
// steady state straight into the drain tail full simulation would run
// after those K periods, (b) afterwards adds K*T cycles and K times the
// period's additive statistics, and (c) replays the K*d elided blocks
// through a data-only interpreter so global memory ends byte-identical
// (certificate disjointness makes the replay order irrelevant, so the
// replay runs on several goroutines). Replay runs the blocks in batches
// of consecutive blocks, one decoded instruction at a time for the whole
// batch (replayBatch), since the certificate gives them one trace. Timing,
// counters, and memory match full simulation exactly; the differential
// tests pin this, and observe gives the argument.
//
// Memoization never engages when a tracer is attached (traces carry
// per-block detail), when site collection is on, when a fault injector is
// armed, when the program is not certified, or when the launch is too small
// to have a steady state worth skipping: fewer than memoMinWaves waves,
// a wave being the blocks the launch holds resident at once, active SMs
// times occupancy (ℓ in the model's Expression (2)).

const (
	// memoMinWaves is the fewest waves a launch needs to be fingerprinted.
	// The first fingerprint is taken when the first wave starts retiring,
	// a period must then be observed once, and a skip needs a whole period
	// left: on every preset and in every default sweep the period found is
	// one wave, so a launch of fewer than three waves never skips (GTX650
	// reduce n=2048 and K40 matmul n=256 recur but have no period left), and
	// fingerprinting it only costs the prover's certificate.
	memoMinWaves = 3
	// memoMaxSnapBytes bounds the fingerprint states one launch stores;
	// a schedule that does not recur within it gives up and simulates
	// fully. The largest store that found a period, across the default
	// sweeps and calibration on every preset, is 0.8 MB (GTX1080
	// calibration: 32 states of 25 KB); GTX650 finds its period within
	// 20 KB, K40 within 148 KB. GTX1080 vecadd and reduce never recur, and
	// a cap of 4096 states let each of those launches store 106 MB before
	// giving up. 4 MB keeps 5× headroom over the largest store that
	// recurred and bounds what one that does not recur wastes.
	memoMaxSnapBytes = 4 << 20
	// memoReplayMinChunk is the fewest elided blocks one replay goroutine
	// takes; a shorter replay runs serially.
	memoReplayMinChunk = 16
	// memoBatchWords is the register and shared words a replay batch may
	// hold, and memoBatchMax the most blocks it holds side by side: at 64
	// blocks an instruction's dispatch is shared by 64 blocks' data work.
	// memoBatchShort is the most blocks a short replay's batch holds: a
	// batch grows past it only while the replay fills memoBatchRuns whole
	// batches, so that a launch which elides a few dozen blocks (atgpud's
	// n=4096 jobs elide 64) does not allocate a warp for more.
	memoBatchWords = 1 << 15
	memoBatchMax   = 64
	memoBatchShort = 8
	memoBatchRuns  = 16
)

// memoSnap is one recorded scheduler fingerprint.
type memoSnap struct {
	state     []byte
	cycle     int64
	nextBlock int
	stats     KernelStats
}

// memoState carries period detection for one launch.
type memoState struct {
	snaps map[uint64][]memoSnap
	seed  maphash.Seed
	enc   []byte
	bytes int // the stored states' bytes
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
	m.enc = encodeRelState(ls, m.enc[:0])
	if m.snaps == nil {
		m.snaps = make(map[uint64][]memoSnap)
		m.seed = maphash.MakeSeed()
	}
	key := maphash.Bytes(m.seed, m.enc)
	recurred := false
	for _, s := range m.snaps[key] {
		if !bytes.Equal(s.state, m.enc) {
			continue
		}
		d := ls.nextBlock - s.nextBlock
		if d <= 0 {
			continue
		}
		recurred = true
		// Skip every whole period that fits. The fingerprint holds all
		// scheduler state relative to the current cycle and the refill
		// frontier; the one absolute input left is how many blocks remain,
		// and shrinking schedBlocks by k·d leaves the simulation exactly
		// as many as full simulation has after k more periods. Refill
		// never runs out inside a skipped period, because
		// nextBlock + k·d ≤ schedBlocks: each period places exactly d
		// blocks, so even the last one gets every block it asks for. So
		// the simulation from here is full simulation's own drain, and
		// each skipped period accrues exactly the observed delta. The
		// period just observed was simulated, so every maximum a period
		// reaches is already in ls.stats.
		k := int64(remaining) / int64(d)
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
		ls.d.memoElided += k * int64(d)
		return
	}
	if recurred {
		// Too few blocks remain to skip a period. The schedule repeats from
		// here with the same period and every later boundary has fewer
		// blocks left, so no later skip fits either: stop fingerprinting.
		m.off = true
		return
	}
	if m.bytes+len(m.enc) > memoMaxSnapBytes {
		m.off = true
		return
	}
	snap := memoSnap{
		state:     append([]byte(nil), m.enc...),
		cycle:     ls.cycle,
		nextBlock: ls.nextBlock,
		stats:     ls.stats,
	}
	m.snaps[key] = append(m.snaps[key], snap)
	m.bytes += len(snap.state)
}

// encodeRelState flattens everything the scheduler's future behaviour can
// depend on, relative to the current cycle and refill frontier: per-SM
// round-robin pointers and resident warps (block offset, trace position,
// state, readiness offset) plus the memory-controller horizon. Register
// contents and absolute block IDs are deliberately excluded — the
// BlockUniform certificate proves they cannot steer scheduling. The words
// are appended to enc as little-endian bytes, so a fingerprint hashes in
// one maphash.Bytes call.
func encodeRelState(ls *launchState, enc []byte) []byte {
	word := func(v int64) { enc = binary.LittleEndian.AppendUint64(enc, uint64(v)) }
	memRel := ls.memFree - ls.cycle
	if memRel < 0 {
		// A drained controller behaves identically at any offset ≤ 0.
		memRel = 0
	}
	word(memRel)
	for _, sm := range ls.sms {
		word(int64(sm.rr))
		word(int64(len(sm.resident)))
		for _, w := range sm.resident {
			rel := int64(0)
			if w.state == wWaiting {
				rel = w.readyAt - ls.cycle
			}
			word(int64(w.blockID - ls.nextBlock))
			word(int64(w.pc))
			word(w.instrs)
			word(int64(w.state))
			word(rel)
		}
	}
	return enc
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

// batchBlocks returns how many blocks one replay batch of prog holds at
// warp width width when blocks are elided: the largest power of two that
// keeps a batch's registers and shared slab within memoBatchWords, at most
// memoBatchMax, and above memoBatchShort only while elided fills
// memoBatchRuns batches. A power of two divides every power-of-two tile row
// at least as long, so batches cut at its multiples stay inside the rows
// of the paper's tilings (see replayWith).
func batchBlocks(prog *kernel.Program, width, elided int) int {
	perBlock := max(1, prog.NumRegs*width+(prog.SharedWords+width-1)/width*width)
	fit := min(memoBatchWords/perBlock, memoBatchMax, max(memoBatchShort, elided/memoBatchRuns))
	return 1 << (bits.Len(uint(max(1, fit))) - 1)
}

// memoReplay runs blocks [from, to) through the data-only batch
// interpreter so their register-file-to-memory effects land exactly as
// full simulation would have produced them. The certificate guarantees
// the blocks' global writes are disjoint from each other and from the
// simulated blocks', so replay order is irrelevant: the range is split
// into up to GOMAXPROCS contiguous chunks of at least memoReplayMinChunk
// blocks and one batch, cut at multiples of the batch size (batchBlocks,
// sized by the replay's length), each replayed on its own
// batch warp from the idle pool. A failure reports the lowest failing block,
// the one a serial replay would have stopped at.
func (ls *launchState) memoReplay(from, to int) error {
	n := to - from
	batch := batchBlocks(ls.prog, ls.width, n)
	dec, err := ls.d.decoded(ls.prog, batch*ls.width)
	if err != nil {
		return err
	}
	k := max(1, min(runtime.GOMAXPROCS(0), n/max(memoReplayMinChunk, batch)))
	shape := warpShape{ls.width, batch, ls.prog.NumRegs, ls.prog.SharedWords}
	warps := takeWarps(make([]*warp, 0, k), shape, k)
	for len(warps) < k {
		warps = append(warps, newWarp(shape))
	}
	defer putWarps(shape, warps)
	cuts := make([]int, k+1)
	for i := range k {
		cuts[i] = max(from, (from+i*n/k)/batch*batch)
	}
	cuts[k] = to
	errs := make([]error, k)
	// Settle global memory's pending zeroes here, so the chunks' Raw
	// calls only read (see mem.NewGlobalReusing).
	ls.d.global.Raw()
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ls.replayWith(warps[i], dec, batch, cuts[i], cuts[i+1])
		}(i)
	}
	// Chunk 0 runs on the calling goroutine, which would only wait. The
	// caller keeps its OS thread: readied by the last chunk to finish, it
	// would otherwise resume on that chunk's thread, and the rest of the
	// run with it, on a CPU that may be slower.
	runtime.LockOSThread()
	errs[0] = ls.replayWith(warps[0], dec, batch, cuts[0], cuts[1])
	wg.Wait()
	runtime.UnlockOSThread()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayWith replays blocks [from, to) on w batch by batch, stopping at
// the first failure. A batch holds up to batch consecutive blocks and
// spans no multiple of batch, so it straddles no tile row of a tiling
// whose row of t tiles is a multiple of batch long, and a tile index
// blockid/t or blockid%t keeps a symbolic form. Where a batch does
// straddle a row the quotient differs within it and is written out lane
// by lane, so the data stay exact. It writes nothing but w and global
// memory, so disjoint ranges may run concurrently.
func (ls *launchState) replayWith(w *warp, dec *kernel.Decoded, batch, from, to int) error {
	for first := from; first < to; {
		end := min(to, (first/batch+1)*batch)
		if err := ls.replayBatch(w, dec, first, end-first); err != nil {
			return err
		}
		first = end
	}
	return nil
}

// replayBatch executes blocks [first, first+blocks) side by side on w
// for data effects only: no statistics, no latencies, no scheduling, and
// one decoded instruction at a time for the whole batch (dec holds the
// column bases of w's registers). Control flow, traps and memory bounds
// behave exactly as in execDec, through the same exec* helpers.
//
// The certificate proves the blocks trace identically, so the batch
// shares one pc and one SIMT mask; a control condition that differs
// between its blocks, or a trace longer than the longest the real
// simulation observed (the instruction budget), means the certificate was
// wrong, and the launch fails loudly rather than diverge silently. A trap
// in a block above the first shrinks the batch to the blocks below it,
// which run on from the trapping instruction (nothing moved there), and
// is reported only if none of them fails: the error names the lowest
// failing block, as a block-by-block replay would.
func (ls *launchState) replayBatch(w *warp, dec *kernel.Decoded, first, blocks int) error {
	w.reset(first, blocks)
	ins := dec.Ins
	budget := ls.stats.MaxWarpInstrs
	var pending error
	pc := 0
	var instrs int64
	for {
		if pc < 0 || pc >= len(ins) {
			return ls.replayErr(first, pc, errPCRange)
		}
		if instrs >= budget {
			return ls.replayErr(first, pc, fmt.Errorf("memo replay exceeded %d instructions (certificate violated)", budget))
		}
		in := &ins[pc]
		instrs++

		var err error
		switch in.Op {
		case kernel.OpLdGlobal, kernel.OpStGlobal, kernel.OpLdShared, kernel.OpStShared:
			err = ls.replayMem(w, in)

		case kernel.OpBarrier:
			// data-free

		case kernel.OpJump:
			pc = int(in.Target)
			continue

		case kernel.OpBrNZ:
			var taken bool
			if taken, err = w.execCond(in.Ra, int(in.A)); err == nil && taken {
				pc = int(in.Target)
				continue
			}

		case kernel.OpIfBegin:
			var enter bool
			if enter, _, err = w.execIfBegin(in.Ra, int(in.A)); err == nil && !enter {
				pc = int(in.Target)
				continue
			}

		case kernel.OpIfEnd:
			if !w.popMask() {
				err = errMaskPop
			}

		case kernel.OpHalt:
			return pending

		default:
			err = ls.execALU(w, in)
		}
		if err != nil {
			j := w.trapBlock
			if err = ls.replayErr(first+j, pc, err); j == 0 || errors.Is(err, errBlockVariant) {
				return err
			}
			pending = err
			w.setBlocks(j)
			w.trapBlock = 0
			instrs--
			continue
		}
		pc++
	}
}

// replayMem moves one memory instruction's data for replayBatch through
// execAccess, with its bounds checks and trap text but without pricing.
func (ls *launchState) replayMem(w *warp, in *kernel.DInstr) error {
	if in.Op == kernel.OpLdShared || in.Op == kernel.OpStShared {
		_, _, err := w.execAccess(in, w.shared, w.sharedWords, true, false)
		return err
	}
	global := ls.d.global.Raw()
	_, _, err := w.execAccess(in, global, len(global), false, false)
	return err
}

// replayErr is the launch error of a replay trap err in block blk at pc.
func (ls *launchState) replayErr(blk, pc int, err error) error {
	return fmt.Errorf("%w: kernel %s block %d pc %d (memo replay): %w",
		ErrKernelTrap, ls.prog.Name, blk, pc, err)
}
