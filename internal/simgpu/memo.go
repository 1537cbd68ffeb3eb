package simgpu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"atgpu/internal/kernel"
)

// Block memoization
//
// For a kernel carrying the analyzer's BlockUniform certificate, every
// thread block issues the same instruction trace with the same per-position
// transaction counts and latencies, and the blocks' global writes are
// mutually disjoint. So a block's timing is a function of that trace alone,
// and its data effects are independent of every other block's. The device
// takes the two apart (runMemo):
//
//   - Block 0 runs alone first, through the interpreter, moving its data
//     and recording each issue's cost (issueCost) into a cost trace.
//   - Blocks 1…H−1 replay their data on a batch queue (replayQueue), on
//     GOMAXPROCS goroutines: consecutive blocks side by side, one decoded
//     instruction at a time for the whole batch (replayBatch), with no
//     statistics, latencies or scheduling. Certificate disjointness makes
//     the order irrelevant.
//   - Meanwhile the calling goroutine times the launch: the unchanged
//     scheduler runs cursor warps, which step through the cost trace and
//     charge each cost through execCharge, the scheduled interpreter's own
//     timing rules, and do no register or memory work. When timing ends,
//     the calling goroutine joins the replay queue.
//
// The scheduler — warp states, round-robin pointers, the shared
// memory-controller horizon — is then a deterministic function of its
// *relative* state: each warp's trace position, its readiness offset from
// the current cycle, and its block's offset from the refill frontier.
// Absolute block IDs and register contents cannot influence it. The
// timing pass fingerprints that relative state at block-retire boundaries.
// When a fingerprint recurs, the launch has entered a steady state with
// period T cycles and d blocks: every further T cycles the scheduler
// returns to the same relative state having placed d more blocks and
// accrued the same statistics delta. With r blocks left, the timing pass
// skips all K = r/d whole periods that fit: it (a) shrinks the scheduler's
// block budget by K*d so the timing proceeds from the warmup and the one
// period that revealed the steady state straight into the drain tail full
// simulation would run after those K periods, and (b) afterwards adds K*T
// cycles and K times the period's additive statistics. Timing, counters,
// and memory match full simulation exactly; the differential tests pin
// this, and observe gives the argument.
//
// Memoization never engages when a tracer is attached (traces carry
// per-block detail), when site collection is on, when a fault injector is
// armed, or when the program is not certified. Nor does it at the first
// sight of a launch too small to have a steady state worth skipping:
// fewer than memoMinWaves waves, a wave being the blocks the launch holds
// resident at once, active SMs times occupancy (ℓ in the model's
// Expression (2)). Those launches run every block through the scheduled
// interpreter. A certified shape that comes back after a launch of it has
// been timed, small or not, is a shape memo hit (shapes.go): it replays
// every block's data on the replay queue and takes the stored timing.

const (
	// memoMinWaves is the fewest waves a launch needs to be proved and
	// memoized at its shape's first sight. The first fingerprint is taken
	// when the first wave starts retiring, a period must then be observed
	// once, and a skip needs a whole period left: on every preset and in
	// every default sweep the period found is one wave, so a launch of
	// fewer than three waves never skips (GTX650 reduce n=2048 and K40
	// matmul n=256 recur but have no period left). A certificate would
	// still buy such a launch batch replay beside cursor timing, but the
	// proof runs serially before the launch; so a smaller launch is proved
	// only when its shape comes back, and that launch is a shape memo hit.
	memoMinWaves = 3
	// memoMaxSnapBytes bounds the fingerprint states one launch stores;
	// a schedule that does not recur within it gives up and times every
	// block. The largest store that found a period, across the default
	// sweeps and calibration on every preset, is 0.8 MB (GTX1080
	// calibration: 32 states of 25 KB); GTX650 finds its period within
	// 20 KB, K40 within 148 KB. GTX1080 vecadd and reduce never recur, and
	// a cap of 4096 states let each of those launches store 106 MB before
	// giving up. 4 MB keeps 5× headroom over the largest store that
	// recurred and bounds what one that does not recur wastes.
	memoMaxSnapBytes = 4 << 20
	// memoBatchWords is the register and shared words a replay batch may
	// hold, and memoBatchMax the most blocks it holds side by side: at 64
	// blocks an instruction's dispatch is shared by 64 blocks' data work.
	// 2¹⁷ words (1 MB) fit 8 matmul blocks at warp width 32, 4160 words
	// each (34 registers and a 3072-word tile), so an n=256 launch's 63
	// replayed blocks dispatch its trace 8 times, not 16.
	// memoBatchShort is the most blocks a short replay's batch holds: a
	// batch grows past it only while the replay fills memoBatchRuns whole
	// batches, so that a launch which elides a few dozen blocks (atgpud's
	// n=4096 jobs elide 64) does not allocate a warp for more.
	memoBatchWords = 1 << 17
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
// state, readiness offset) plus the memory-controller horizon; a cursor
// warp's pc is its trace position. Register contents and absolute block
// IDs are deliberately excluded — the BlockUniform certificate proves they
// cannot steer scheduling. The words
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

// finishMemo applies a recorded period skip after the (shrunken) timing
// pass completes: scale in the skipped periods' time and counters.
func (ls *launchState) finishMemo() {
	m := ls.memo
	if !m.applied {
		return
	}
	ls.cycle += m.periods * m.periodCycles
	ls.stats.addScaled(m.delta, m.periods)
}

// memoScratch is what a memoized launch needs beyond its warps: block 0's
// cost trace — the distinct costs it issued, and its issues in order as
// indexes into them — and the replay queue.
type memoScratch struct {
	costs []issueCost
	trace []uint32
	queue replayQueue
}

// memoScratches holds idle memo scratch for every device in the process.
// It is a free list, not a sync.Pool: a pool's per-P caches miss whenever
// a launch runs on another P than the launch that put the scratch back,
// and the trace would be allocated afresh.
var memoScratches struct {
	sync.Mutex
	idle []*memoScratch
}

// takeMemoScratch returns idle memo scratch, or new scratch.
func takeMemoScratch() *memoScratch {
	memoScratches.Lock()
	defer memoScratches.Unlock()
	if n := len(memoScratches.idle); n > 0 {
		s := memoScratches.idle[n-1]
		memoScratches.idle = memoScratches.idle[:n-1]
		return s
	}
	return new(memoScratch)
}

// putMemoScratch empties s and returns it to the free list.
func putMemoScratch(s *memoScratch) {
	s.costs, s.trace = s.costs[:0], s.trace[:0]
	memoScratches.Lock()
	defer memoScratches.Unlock()
	memoScratches.idle = append(memoScratches.idle, s)
}

// runMemo runs a memoized launch of occupancy occ: it records block 0's
// cost trace, starts the data replay of blocks 1…H−1, times the launch
// over cursor warps meanwhile, and joins the replay. A trap in block 0 is
// reported as the scheduled interpreter reports one; a replay failure
// names the lowest failing block.
func (ls *launchState) runMemo(occ int) error {
	ls.scratch = takeMemoScratch()
	defer func() {
		putMemoScratch(ls.scratch)
		ls.scratch = nil
	}()
	if err := ls.record(); err != nil {
		return err
	}
	q, err := ls.startReplay(1, int64(len(ls.scratch.trace)))
	if err != nil {
		return err
	}
	err = ls.run(occ)
	ls.finishMemo()
	if rerr := q.join(); rerr != nil {
		return rerr
	}
	return err
}

// runHit replays every block's data, block 0 included, for a shape memo
// hit (shapes.go) whose blocks each issue budget instructions: on the
// replay queue, with the calling goroutine joining it at once.
func (ls *launchState) runHit(budget int64) error {
	ls.scratch = takeMemoScratch()
	defer func() {
		putMemoScratch(ls.scratch)
		ls.scratch = nil
	}()
	q, err := ls.startReplay(0, budget)
	if err != nil {
		return err
	}
	return q.join()
}

// record runs block 0 alone to its halt through execDec, moving its data
// and appending each issue's cost to the trace.
func (ls *launchState) record() error {
	shape := ls.blockShape()
	w := takeWarp(shape)
	defer idlePool(shape).Put(w)
	w.reset(0, 1)
	s := ls.scratch
	for {
		c, err := ls.execDec(w)
		if err != nil {
			return ls.trapErr(w, err)
		}
		i := slices.Index(s.costs, c)
		if i < 0 {
			i = len(s.costs)
			s.costs = append(s.costs, c)
		}
		s.trace = append(s.trace, uint32(i))
		if c.kind == costHalt {
			return nil
		}
	}
}

// replayQueue hands a memoized launch's replay batches, in ascending block
// order, to the goroutines that replay them: blocks [from, to) in batches
// of batch blocks, cut at multiples of batch (see drain).
type replayQueue struct {
	ls       *launchState
	dec      *kernel.Decoded
	shape    warpShape
	batch    int
	from, to int
	budget   int64

	next atomic.Int64 // index of the next batch to hand out
	// stop is set once a batch failed: every batch handed out after it
	// lies above it, and cannot name a lower block.
	stop  atomic.Bool
	wg    sync.WaitGroup
	mu    sync.Mutex
	errAt int // first block of the lowest failed batch, or to
	err   error
}

// startReplay queues blocks from…H−1 for data replay, batched by
// batchBlocks, with budget, the instructions one block issues, as each
// batch's budget, and starts GOMAXPROCS−1 goroutines on the queue, or
// fewer when there are fewer batches; join runs the calling goroutine on
// it too.
func (ls *launchState) startReplay(from int, budget int64) (*replayQueue, error) {
	to := ls.numBlocks
	batch := batchBlocks(ls.prog, ls.width, to-from)
	dec, err := ls.d.decoded(ls.prog, batch*ls.width)
	if err != nil {
		return nil, err
	}
	q := &ls.scratch.queue
	q.ls, q.dec, q.batch, q.from, q.to = ls, dec, batch, from, to
	q.shape = warpShape{ls.width, batch, ls.prog.NumRegs, ls.prog.SharedWords}
	q.budget = budget
	q.next.Store(int64(from / batch))
	q.stop.Store(false)
	q.errAt, q.err = to, nil
	// Settle global memory's pending zeroes here, so the replay's Raw
	// calls only read (see mem.NewGlobalReusing).
	ls.d.global.Raw()
	batches := (to-1)/batch - from/batch + 1
	for range min(runtime.GOMAXPROCS(0), batches) - 1 {
		q.wg.Add(1)
		go q.work()
	}
	return q, nil
}

// work drains the queue on a goroutine of its own.
func (q *replayQueue) work() {
	defer q.wg.Done()
	q.drain()
}

// drain replays batches from the queue on a batch warp from the idle pool
// until none is left or one has failed. A batch holds up to batch
// consecutive blocks and spans no multiple of batch, so it straddles no
// tile row of a tiling whose row of t tiles is a multiple of batch long,
// and a tile index blockid/t or blockid%t keeps a symbolic form. Where a
// batch does straddle a row the quotient differs within it and is written
// out lane by lane, so the data stay exact. A batch writes nothing but its
// warp and global memory, so batches run concurrently.
func (q *replayQueue) drain() {
	w := takeWarp(q.shape)
	defer idlePool(q.shape).Put(w)
	for !q.stop.Load() {
		i := int(q.next.Add(1) - 1)
		first, end := max(q.from, i*q.batch), min(q.to, (i+1)*q.batch)
		if first >= end {
			return
		}
		if err := q.ls.replayBatch(w, q.dec, q.budget, first, end-first); err != nil {
			q.fail(first, err)
		}
	}
}

// fail records err from the batch from block first and stops the queue.
// The lowest batch's error wins: it is the one a serial replay would have
// stopped at.
func (q *replayQueue) fail(first int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if first < q.errAt {
		q.errAt, q.err = first, err
	}
	q.stop.Store(true)
}

// join runs the calling goroutine on the queue until it is empty, waits
// for the queue's other goroutines and returns the lowest failing block's
// error. The caller keeps its OS
// thread: readied by the last goroutine to finish, it would otherwise
// resume on that goroutine's thread, and the rest of the run with it, on a
// CPU that may be slower.
func (q *replayQueue) join() error {
	runtime.LockOSThread()
	q.drain()
	q.wg.Wait()
	runtime.UnlockOSThread()
	err := q.err
	q.ls, q.dec, q.err = nil, nil, nil
	return err
}

// batchBlocks returns how many blocks one replay batch of prog holds at
// warp width width when blocks are elided: the largest power of two that
// keeps a batch's registers and shared slab within memoBatchWords, at most
// memoBatchMax, and above memoBatchShort only while elided fills
// memoBatchRuns batches. A power of two divides every power-of-two tile row
// at least as long, so batches cut at its multiples stay inside the rows
// of the paper's tilings (see replayQueue.drain).
func batchBlocks(prog *kernel.Program, width, elided int) int {
	perBlock := max(1, prog.NumRegs*width+(prog.SharedWords+width-1)/width*width)
	fit := min(memoBatchWords/perBlock, memoBatchMax, max(memoBatchShort, elided/memoBatchRuns))
	return 1 << (bits.Len(uint(max(1, fit))) - 1)
}

// replayBatch executes blocks [first, first+blocks) side by side on w
// for data effects only: no statistics, no latencies, no scheduling, and
// one decoded instruction at a time for the whole batch (dec holds the
// column bases of w's registers). Control flow, traps and memory bounds
// behave exactly as in execDec, through the same exec* helpers.
//
// The certificate proves the blocks trace identically, so the batch
// shares one pc and one SIMT mask; a control condition that differs
// between its blocks, or a trace longer than block 0's (budget
// instructions), means the certificate was wrong, and the launch fails
// loudly rather than diverge silently. A trap
// in a block above the first shrinks the batch to the blocks below it,
// which run on from the trapping instruction (nothing moved there), and
// is reported only if none of them fails: the error names the lowest
// failing block, as a block-by-block replay would.
func (ls *launchState) replayBatch(w *warp, dec *kernel.Decoded, budget int64, first, blocks int) error {
	w.reset(first, blocks)
	defer func() { w.global = nil }() // see warp.global
	ins := dec.Ins
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

		case kernel.OpMul:
			if pc+1 < len(ins) && instrs < budget && w.execMulAdd(in, &ins[pc+1]) {
				instrs++
				pc += 2
				continue
			}
			err = ls.execALU(w, in)

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
