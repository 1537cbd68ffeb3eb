package analyze

import (
	"atgpu/internal/kernel"
)

// This file is the static side of the simulator's atomic serialisation model
// (simgpu/atomics.go): the same per-bank / per-address conflict-degree count
// over the abstract address vector, the same counters and site statistics,
// plus the contention analyzer — conflicting atomic lanes are reported as an
// AnalyzerContention warning with the predicted serialisation factor, not as
// a race. When every address is statically known the predicted degrees equal
// the device's exactly; unknown-address lanes are added to the worst bank or
// address pessimistically (capped at the active lane count), so approximate
// analyses bound the observed serialisation from above.

// execAtom dispatches one warp-wide atomic access on the instruction's
// address space. Returns false on abort; advances pc itself.
func (b *blockRun) execAtom(in kernel.Instr) bool {
	if in.Imm == kernel.AtomGlobal {
		return b.execAtomGlobal(in)
	}
	return b.execAtomShared(in)
}

// atomV is the abstract read-modify-write: the new cell value from the old
// value, the lane operand, and (for CAS) the compare value.
func atomV(op kernel.Op, old, v, cmp V) V {
	switch op {
	case kernel.OpAtomAdd:
		return vTransfer(kernel.OpAdd.Semantics(), old, v)
	case kernel.OpAtomMax:
		return vTransfer(kernel.OpMax.Semantics(), old, v)
	case kernel.OpAtomExch:
		return v
	default: // OpAtomCAS
		if old.IsKnown() && cmp.IsKnown() {
			if old.Lo == cmp.Lo {
				return v
			}
			return old
		}
		if old.Hi < cmp.Lo || old.Lo > cmp.Hi {
			// The compare can never match: the cell is untouched.
			return old
		}
		return join(old, v)
	}
}

// execAtomShared mirrors execAtomShared in the simulator: degree is the
// worst per-bank lane count with no broadcast exemption (every conflicting
// lane replays — same-address atomics serialise, unlike reads).
func (b *blockRun) execAtomShared(in kernel.Instr) bool {
	a := b.a
	if b.mayN == 0 {
		b.pc++
		return true
	}
	if !b.gather(in, b.prog.SharedWords, "shared") {
		return false
	}

	// Per-bank degree over known addresses; unknown lanes pile onto the
	// worst bank.
	degree, lanes := b.bankDegree()
	unknown := 0
	active := 0
	for _, c := range b.addrs {
		switch c {
		case laneMasked:
		case laneUnknown:
			unknown++
			active++
		default:
			active++
		}
	}
	degree += unknown
	if degree > active {
		degree = active
	}
	if degree < 1 {
		degree = 1
	}

	b.recordAtomic(in, degree, lanes, "shared")

	// Lane-order abstract RMW, exactly the device's deterministic order.
	// The CAS compare value is read from Rd before the old value lands
	// there.
	rb := b.col(in.Rb)
	d := b.dst(in.Rd)
	for l := 0; l < b.width; l++ {
		if b.addrs[l] == laneMasked {
			continue
		}
		if b.addrs[l] == laneUnknown {
			// Address not pinned down: every cell in the possible range may
			// hold a new unknown value; the old value returned is unknown.
			av := b.regs[b.base(in.Ra)+l]
			lo, hi := av.Lo, av.Hi
			if lo < 0 {
				lo = 0
			}
			if hi >= int64(b.prog.SharedWords) {
				hi = int64(b.prog.SharedWords) - 1
			}
			for c := lo; c <= hi; c++ {
				b.shared[c] = join(b.shared[c], top)
			}
			b.regs[d+l] = top
			continue
		}
		c := b.addrs[l]
		// Atomic-vs-plain in either direction is a race; atomic-vs-atomic
		// only serialises (reported above as contention).
		if w := b.wmask[c] &^ laneBit(l); w != 0 {
			wl := lowestLane(w)
			a.reportf(Finding{Analyzer: AnalyzerRace, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: witness(wl, l)},
				"shared memory race: lane %d atomically updates _shared[%d] plainly written by lane %d with no barrier between",
				l, c, wl)
		} else if r := b.rmask[c] &^ laneBit(l); r != 0 {
			rl := lowestLane(r)
			a.reportf(Finding{Analyzer: AnalyzerRace, Severity: SevError, PC: b.pc, Block: b.blockID, Lanes: witness(rl, l)},
				"shared memory race: lane %d atomically updates _shared[%d] read by lane %d with no barrier between",
				l, c, rl)
		}
		b.amask[c] |= laneBit(l)
		b.logWrite(c)
		// Operand and compare value are read before Rd is overwritten with
		// the old value, exactly as the device does (Rb may alias Rd).
		cmp := b.regs[d+l]
		v := b.regs[rb+l]
		old := b.shared[c]
		b.setLane(d+l, l, old)
		b.setSharedLane(c, l, atomV(in.Op, old, v, cmp))
	}
	b.pc++
	return true
}

// execAtomGlobal mirrors the simulator's global atomic: transactions are the
// distinct width-blocks touched (like coalescing) and degree the worst
// same-address lane count. Global contents are unmodeled, so the returned
// old values are top.
func (b *blockRun) execAtomGlobal(in kernel.Instr) bool {
	a := b.a
	if !b.gather(in, a.opt.Machine.GlobalWords, "global") {
		return false
	}

	bs := int64(b.width)
	var blocks [64]int64
	nblocks := 0
	unknown := 0
	active := 0
	degree := 0
	var lanes []int
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
		same := 1
		first := -1
		for m := 0; m < l; m++ {
			if b.addrs[m] == b.addrs[l] {
				if first < 0 {
					first = m
				}
				same++
			}
		}
		if same > degree {
			degree = same
			if same == 2 {
				lanes = witness(first, l)
			}
		}
	}
	if active == 0 {
		b.pc++
		return true
	}
	txn := nblocks + unknown
	if txn > active {
		txn = active
	}
	degree += unknown
	if degree > active {
		degree = active
	}
	if degree < 1 {
		degree = 1
	}

	b.recordAtomic(in, degree, lanes, "global")
	site := a.site(b.pc, in.Op)
	site.Transactions += int64(txn)
	if txn > site.MaxDegree {
		site.MaxDegree = txn
	}

	if b.allMust {
		b.forms[in.Rd] = uniformForm(top)
	} else {
		d := b.dst(in.Rd)
		for l := 0; l < b.width; l++ {
			if b.addrs[l] != laneMasked {
				b.regs[d+l] = top
			}
		}
	}
	b.pc++
	return true
}

// recordAtomic folds one atomic access of the given serialisation degree
// into the counters, site statistics and (when conflicted) the contention
// analyzer, identically to the simulator's bookkeeping.
func (b *blockRun) recordAtomic(in kernel.Instr, degree int, lanes []int, space string) {
	a := b.a
	a.stats.AtomicAccesses++
	a.stats.AtomicSerialisations += int64(degree - 1)
	if degree > a.stats.MaxAtomicDegree {
		a.stats.MaxAtomicDegree = degree
	}
	b.atomSer += int64(degree - 1)

	site := a.site(b.pc, in.Op)
	site.Accesses++
	if degree > 1 {
		site.Conflicted++
		a.reportf(Finding{Analyzer: AnalyzerContention, Severity: SevWarning, PC: b.pc, Block: b.blockID, Lanes: lanes},
			"%s atomic contention: %d conflicting lanes serialise (predicted contention factor %d.0x at this site)",
			space, degree, degree)
	}
	if degree > site.MaxDegree {
		site.MaxDegree = degree
	}
}
