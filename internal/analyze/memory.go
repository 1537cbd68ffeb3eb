package analyze

import (
	"math"

	"atgpu/internal/kernel"
)

// gather collects the per-lane abstract addresses of a memory access into
// b.addrs: the concrete address for may-active lanes with a known in-range
// value, laneMasked for inactive lanes, laneUnknown when the interval is not
// a single point. Bounds violations are reported against size (G or the
// kernel's shared allocation); a violation that must happen aborts the
// analysis like the device trap it mirrors. Returns false on abort.
func (b *blockRun) gather(in kernel.Instr, size int, space string) bool {
	a := b.a
	ra := b.col(in.Ra)
	for l := 0; l < b.width; l++ {
		if !on(b.may, l) {
			b.addrs[l] = laneMasked
			continue
		}
		av := b.regs[ra+l]
		if av.IsKnown() {
			x := av.Lo
			if x < 0 || x >= int64(size) {
				if on(b.must, l) {
					a.reportf(Finding{Analyzer: AnalyzerBounds, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: []int{l}},
						"%s %s out of bounds: lane %d address %d not in [0, %d) — the device traps this launch",
						space, opKind(in.Op), l, x, size)
					return false
				}
				a.precise = false
				a.reportf(Finding{Analyzer: AnalyzerBounds, Severity: SevWarning, PC: b.pc, Block: b.blockID, Lanes: []int{l}},
					"possible %s %s out of bounds: lane %d address %d not in [0, %d)",
					space, opKind(in.Op), l, x, size)
				b.addrs[l] = laneUnknown
				continue
			}
			b.addrs[l] = x
			continue
		}
		a.precise = false
		b.addrs[l] = laneUnknown
		if av.Lo >= int64(size) || av.Hi < 0 {
			// The whole interval is out of range: the access faults whenever
			// the lane is live.
			if on(b.must, l) {
				a.reportf(Finding{Analyzer: AnalyzerBounds, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: []int{l}},
					"%s %s out of bounds: lane %d address in [%d, %d], valid range [0, %d) — the device traps this launch",
					space, opKind(in.Op), l, av.Lo, av.Hi, size)
				return false
			}
			a.reportf(Finding{Analyzer: AnalyzerBounds, Severity: SevWarning, PC: b.pc, Block: b.blockID, Lanes: []int{l}},
				"possible %s %s out of bounds: lane %d address in [%d, %d], valid range [0, %d)",
				space, opKind(in.Op), l, av.Lo, av.Hi, size)
		} else if av.Lo < 0 || av.Hi >= int64(size) {
			a.reportf(Finding{Analyzer: AnalyzerBounds, Severity: SevWarning, PC: b.pc, Block: b.blockID, Lanes: []int{l}},
				"possible %s %s out of bounds: lane %d address in [%d, %d], valid range [0, %d)",
				space, opKind(in.Op), l, av.Lo, av.Hi, size)
		}
	}
	return true
}

func opKind(op kernel.Op) string {
	switch op {
	case kernel.OpLdGlobal, kernel.OpLdShared:
		return "load"
	case kernel.OpAtomAdd, kernel.OpAtomMax, kernel.OpAtomExch, kernel.OpAtomCAS:
		return "atomic update"
	default:
		return "store"
	}
}

// execGlobal mirrors the simulator's coalescing count for a warp-wide global
// access and is the static side of the coalescing-degree prediction. An
// in-range lane-affine address of the active prefix is counted in closed
// form (formTransactions); any other is gathered and counted lane by lane.
// Returns false on abort; advances pc itself.
func (b *blockRun) execGlobal(in kernel.Instr) bool {
	a := b.a
	var txn int
	if f, ok := b.formAddr(in.Ra, a.opt.Machine.GlobalWords); ok {
		txn = formTransactions(f, b.prefix, b.width)
	} else {
		if !b.gather(in, a.opt.Machine.GlobalWords, "global") {
			return false
		}
		var ok bool
		if txn, ok = b.gatheredTransactions(); !ok {
			// Fully masked access: costs the issue slot only.
			b.pc++
			return true
		}
	}

	a.stats.GlobalAccesses++
	a.stats.GlobalTransactions += int64(txn)
	site := a.site(b.pc, in.Op)
	site.Accesses++
	site.Transactions += int64(txn)
	if txn > site.MaxDegree {
		site.MaxDegree = txn
	}
	if txn > 1 {
		a.stats.UncoalescedAccesses++
		site.Uncoalesced++
		a.reportf(Finding{Analyzer: AnalyzerMemory, Severity: SevWarning, PC: b.pc, Block: b.blockID},
			"uncoalesced global %s: %d transactions for one warp access (perfect coalescing is 1)",
			opKind(in.Op), txn)
	}

	if in.Op == kernel.OpLdGlobal {
		// Global contents are unknown data: loads produce top.
		if b.allMust {
			b.forms[in.Rd] = uniformForm(top)
		} else {
			d := b.dst(in.Rd)
			for l := 0; l < b.mayEnd; l++ {
				if on(b.may, l) { // the lanes gather leaves unmasked
					b.regs[d+l] = top
				}
			}
		}
	}
	b.pc++
	return true
}

// gatheredTransactions counts the transactions of the gathered access,
// or returns false when every lane is masked.
func (b *blockRun) gatheredTransactions() (int, bool) {
	// Distinct memory blocks over known addresses, exactly as the device
	// counts them; unknown lanes pessimistically add one transaction each.
	bs := int64(b.width)
	var blocks [64]int64
	nblocks := 0
	unknown := 0
	active := 0
	for l := 0; l < b.width; l++ {
		switch b.addrs[l] {
		case laneMasked:
			continue
		case laneUnknown:
			unknown++
			active++
			continue
		}
		active++
		blk := b.addrs[l] / bs
		seen := false
		for i := 0; i < nblocks; i++ {
			if blocks[i] == blk {
				seen = true
				break
			}
		}
		if !seen {
			blocks[nblocks] = blk
			nblocks++
		}
	}
	if active == 0 {
		return 0, false
	}
	return min(nblocks+unknown, active), true
}

// execShared mirrors the simulator's bank-conflict analysis and runs the
// race detector over the access. An in-range lane-affine address of the
// active prefix takes its conflict degree in closed form (formConflict)
// and its lanes' addresses from the form; any other is gathered and
// counted lane by lane. Returns false on abort; advances pc itself.
func (b *blockRun) execShared(in kernel.Instr) bool {
	a := b.a
	if b.mayN == 0 {
		b.pc++
		return true
	}
	var degree int
	var conflictLanes []int
	f, formed := b.formAddr(in.Ra, b.prog.SharedWords)
	if formed {
		degree, conflictLanes = formConflict(f, b.prefix, b.width, a.opt.Machine.BroadcastSharedReads)
	} else {
		if !b.gather(in, b.prog.SharedWords, "shared") {
			return false
		}
		degree, conflictLanes = b.conflictDegree()
	}
	a.stats.SharedAccesses++
	site := a.site(b.pc, in.Op)
	site.Accesses++
	if degree > 1 {
		a.stats.BankConflicts++
		if degree > a.stats.MaxConflictDegree {
			a.stats.MaxConflictDegree = degree
		}
		site.Conflicted++
		a.reportf(Finding{Analyzer: AnalyzerMemory, Severity: SevWarning, PC: b.pc, Block: b.blockID, Lanes: conflictLanes},
			"shared %s bank conflict: degree %d serialisation (lanes hit the same bank)",
			opKind(in.Op), degree)
	}
	if degree > site.MaxDegree {
		site.MaxDegree = degree
	}

	switch {
	case in.Op == kernel.OpLdShared && formed && b.allMust && b.formLoad(in.Rd, f):
	case in.Op == kernel.OpLdShared:
		if formed {
			b.formLanes(f)
		}
		b.sharedLoad(in.Rd)
	default:
		if formed {
			b.formLanes(f)
		}
		b.sharedStore(in)
	}
	b.pc++
	return true
}

// conflictDegree mirrors the device's bank serialisation count over the
// known gathered addresses, and returns two witness lanes when conflicted.
// Unknown-address lanes are excluded (the report is already approximate).
func (b *blockRun) conflictDegree() (int, []int) {
	if b.a.opt.Machine.BroadcastSharedReads {
		same := true
		first := int64(-1)
		for l := 0; l < b.width; l++ {
			if b.addrs[l] < 0 {
				continue
			}
			if first < 0 {
				first = b.addrs[l]
			} else if b.addrs[l] != first {
				same = false
				break
			}
		}
		if same {
			return 1, nil
		}
	}
	return b.bankDegree()
}

// bankDegree is the worst per-bank lane count over the known gathered
// addresses, with the witness lanes of the first bank hit twice: the bank
// serialisation of shared loads and stores without broadcast, and of
// shared atomics. Only the width bank counters are cleared; the witness's
// first lane is looked up when the repeat is found.
func (b *blockRun) bankDegree() (int, []int) {
	counts := b.bankHits
	clear(counts)
	w := int64(b.width)
	max := 0
	var lanes []int
	for l, c := range b.addrs[:b.mayEnd] {
		if c < 0 {
			continue
		}
		bk := c % w
		counts[bk]++
		if counts[bk] > max {
			max = counts[bk]
			if max == 2 {
				lanes = witness(b.firstInBank(bk), l)
			}
		}
	}
	return max, lanes
}

// firstInBank returns the lowest lane whose known gathered address falls
// in bank bk.
func (b *blockRun) firstInBank(bk int64) int {
	for l, c := range b.addrs[:b.mayEnd] {
		if c >= 0 && c%int64(b.width) == bk {
			return l
		}
	}
	return -1
}

// formLoad is the closed form of a fully must-active load into rd from
// the in-range, monotone cells f (formAddr) when no lane races: it logs
// the read and gives rd a uniform form when every cell holds the same
// value, else writes rd's column from the cells. A broadcast (step 0)
// checks its one cell once and logs the whole warp's read at once. With a
// race to report it returns false, having changed nothing but the read
// log, which the per-lane load that reports the race logs the same way.
func (b *blockRun) formLoad(rd kernel.Reg, f kernel.Affine) bool {
	if f.Step == 0 {
		c := f.Base
		if b.wmask[c]|b.amask[c] != 0 {
			return false
		}
		b.rmask[c] |= laneBit(b.width) - 1 // every lane; wraps to all ones at 64
		b.forms[rd] = uniformForm(b.shared[c])
		return true
	}
	// Distinct cells: lane l races only with another lane's write since
	// the last barrier.
	check := b.unsynced(min(f.Base, f.Lane(b.width-1)), max(f.Base, f.Lane(b.width-1)))
	var races uint64
	v0 := b.shared[f.Base]
	same := true
	for l, c := 0, f.Base; l < b.width; l, c = l+1, c+f.Step {
		bit := laneBit(l)
		b.rmask[c] |= bit
		if check {
			races |= (b.wmask[c] | b.amask[c]) &^ bit
		}
		same = same && b.shared[c] == v0
	}
	if races != 0 {
		return false
	}
	if same {
		b.forms[rd] = uniformForm(v0)
		return true
	}
	d := b.base(rd)
	col := b.regs[d : d+b.width]
	for l, c := 0, f.Base; l < b.width; l, c = l+1, c+f.Step {
		col[l] = b.shared[c]
	}
	b.forms[rd] = regForm{kind: formColumn}
	return true
}

// sharedLoad reads each lane's cell value into rd and checks the read
// against un-barriered writes by other lanes (read-after-write race); with
// none logged since the last barrier there is nothing to check. On a fully
// must-active block the load overwrites every lane without writing the
// destination's old form out, and equal cells (a tile of tops, say) leave
// the destination uniform.
func (b *blockRun) sharedLoad(rd kernel.Reg) {
	if b.unsynced(0, math.MaxInt64) {
		b.loadRaces()
	}
	for l, c := range b.addrs[:b.mayEnd] {
		if c >= 0 {
			b.rmask[c] |= laneBit(l)
		}
	}
	d := b.base(rd)
	if b.allMust {
		// No lane is masked: each reads its cell, or top at an unknown
		// address.
		col := b.regs[d : d+b.width]
		same := true
		for l, c := range b.addrs {
			v := top
			if c >= 0 {
				v = b.shared[c]
			}
			col[l] = v
			same = same && v == col[0]
		}
		b.forms[rd] = regForm{kind: formColumn}
		if same {
			b.forms[rd] = regForm{kind: formUniform, out: true, v: col[0]}
		}
		return
	}
	b.dst(rd)
	for l, c := range b.addrs[:b.mayEnd] {
		switch c {
		case laneMasked:
		case laneUnknown:
			b.regs[d+l] = top
		default:
			b.setLane(d+l, l, b.shared[c])
		}
	}
}

// loadRaces reports the lanes of a shared load that read a cell another
// lane wrote, plainly or atomically, since the last barrier.
func (b *blockRun) loadRaces() {
	a := b.a
	for l, c := range b.addrs[:b.mayEnd] {
		if c < 0 {
			continue
		}
		if w := b.wmask[c] &^ laneBit(l); w != 0 {
			wl := lowestLane(w)
			a.reportf(Finding{Analyzer: AnalyzerRace, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: witness(wl, l)},
				"shared memory race: lane %d reads _shared[%d] written by lane %d (pc %d, line %d) with no barrier between",
				l, c, wl, b.wpc[c], b.prog.Line(int(b.wpc[c])))
		} else if m := b.amask[c] &^ laneBit(l); m != 0 {
			ml := lowestLane(m)
			a.reportf(Finding{Analyzer: AnalyzerRace, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: witness(ml, l)},
				"shared memory race: lane %d plainly reads _shared[%d] atomically updated by lane %d with no barrier between",
				l, c, ml)
		}
	}
}

// sharedStore writes each lane's value and checks the write against
// un-barriered reads and writes by other lanes (write-after-read and
// write-after-write races), including two lanes storing to the same cell in
// this very instruction: a lower lane's store to the cell is already in
// wmask when a higher lane's is checked.
func (b *blockRun) sharedStore(in kernel.Instr) {
	a := b.a
	s := b.col(in.Rb)
	for l := 0; l < b.mayEnd; l++ {
		if b.addrs[l] == laneMasked {
			continue
		}
		if b.addrs[l] == laneUnknown {
			// Address not pinned down: havoc the possible range.
			av := b.regs[b.base(in.Ra)+l]
			lo, hi := av.Lo, av.Hi
			if lo < 0 {
				lo = 0
			}
			if hi >= int64(b.prog.SharedWords) {
				hi = int64(b.prog.SharedWords) - 1
			}
			for c := lo; c <= hi; c++ {
				b.shared[c] = join(b.shared[c], b.regs[s+l])
			}
			continue
		}
		c := b.addrs[l]
		if w := b.wmask[c] &^ laneBit(l); w != 0 {
			wl := lowestLane(w)
			a.reportf(Finding{Analyzer: AnalyzerRace, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: witness(wl, l)},
				"shared memory race: lanes %d and %d both write _shared[%d] with no barrier between",
				wl, l, c)
		} else if m := b.amask[c] &^ laneBit(l); m != 0 {
			ml := lowestLane(m)
			a.reportf(Finding{Analyzer: AnalyzerRace, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: witness(ml, l)},
				"shared memory race: lane %d plainly writes _shared[%d] atomically updated by lane %d with no barrier between",
				l, c, ml)
		} else if r := b.rmask[c] &^ laneBit(l); r != 0 {
			rl := lowestLane(r)
			a.reportf(Finding{Analyzer: AnalyzerRace, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: witness(rl, l)},
				"shared memory race: lane %d writes _shared[%d] read by lane %d with no barrier between",
				l, c, rl)
		}
		b.wmask[c] |= laneBit(l)
		b.logWrite(c)
		b.wpc[c] = int32(b.pc)
		b.setSharedLane(c, l, b.regs[s+l])
	}
}

// setSharedLane writes v to a shared cell, weakening to a join when the
// writing lane only may be active.
func (b *blockRun) setSharedLane(c int64, lane int, v V) {
	if on(b.must, lane) {
		b.shared[c] = v
	} else {
		b.shared[c] = join(b.shared[c], v)
	}
}

func laneBit(l int) uint64 { return uint64(1) << uint(l) }

func lowestLane(m uint64) int {
	for l := 0; l < 64; l++ {
		if m&(1<<uint(l)) != 0 {
			return l
		}
	}
	return -1
}
