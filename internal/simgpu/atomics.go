package simgpu

import "atgpu/internal/kernel"

// This file implements the atomic read-modify-write instructions, called
// by the interpreter with precomputed register-column bases. Conflicting
// lanes serialise in ascending lane order — per shared-memory bank for
// shared atomics, per address for global atomics — making results
// deterministic and the serialisation cost observable on the timeline. All
// functions are on the hot path: no append/make (enforced by the atgpu-vet
// hotalloc pass).

// atomRMW applies one lane's read-modify-write: given the old cell value,
// the lane operand v and (for CAS) the lane's incoming Rd value cmp, it
// returns the new cell value.
func atomRMW(op kernel.Op, old, v, cmp kernel.Word) kernel.Word {
	switch op {
	case kernel.OpAtomAdd:
		return old + v
	case kernel.OpAtomMax:
		if v > old {
			return v
		}
		return old
	case kernel.OpAtomExch:
		return v
	default: // OpAtomCAS
		if old == cmp {
			return v
		}
		return old
	}
}

// execAtomShared performs a warp-wide shared-memory atomic. The
// serialisation degree is the maximum per-bank request count — atomics get
// no broadcast exemption: even lanes hitting the same word must replay the
// bank sequentially — and the access always costs degree shared latencies.
// Advances pc itself on every path.
func (ls *launchState) execAtomShared(w *warp, op kernel.Op, dBase, aBase, bBase int) error {
	width := ls.width
	regs := w.regs
	sh := w.shared
	ssize := sh.Size()

	if w.activeN == 0 {
		w.pc++
		return nil
	}
	if bad := execGather(w, aBase, ssize); bad >= 0 {
		return sharedRangeErr(op, bad, regs[aBase+bad], ssize)
	}

	// Per-bank request counts; no broadcast exemption for atomics.
	counts := ls.bankCounts
	for i := range counts {
		counts[i] = 0
	}
	degree := 0
	for l := 0; l < width; l++ {
		if w.addrs[l] < 0 {
			continue
		}
		bk := w.addrs[l] % width
		counts[bk]++
		if counts[bk] > degree {
			degree = counts[bk]
		}
	}

	ls.stats.AtomicAccesses++
	ls.stats.AtomicSerialisations += int64(degree - 1)
	if degree > ls.stats.MaxAtomicDegree {
		ls.stats.MaxAtomicDegree = degree
	}
	w.atomSer += int64(degree - 1)
	if ls.sites != nil {
		s := &ls.sites[w.pc]
		s.Accesses++
		if degree > 1 {
			s.Conflicted++
		}
		if degree > s.MaxDegree {
			s.MaxDegree = degree
		}
	}

	// Lane-order sequential read-modify-write: lane l observes the effects
	// of all lower-numbered lanes on the same cell.
	raw := sh.Raw()
	for l := 0; l < width; l++ {
		if w.addrs[l] < 0 {
			continue
		}
		old := raw[w.addrs[l]]
		raw[w.addrs[l]] = atomRMW(op, old, regs[bBase+l], regs[dBase+l])
		regs[dBase+l] = old
	}

	w.state = wWaiting
	w.readyAt = ls.cycle + int64(ls.d.cfg.SharedLatencyCycles)*int64(degree)
	w.pc++
	return nil
}

// execAtomGlobal performs a warp-wide global-memory atomic. Coalescing
// still applies (distinct width-word blocks cost transactions), and on top
// of it conflicting lanes targeting the same address serialise: the access
// costs (degree−1) extra transaction serialisations. Advances pc itself on
// every path.
func (ls *launchState) execAtomGlobal(w *warp, op kernel.Op, dBase, aBase, bBase int) error {
	width := ls.width
	regs := w.regs
	g := ls.d.global
	gsize := g.Size()

	if w.activeN == 0 {
		w.pc++
		return nil
	}
	if bad := execGather(w, aBase, gsize); bad >= 0 {
		return globalRangeErr(op, bad, regs[aBase+bad], gsize)
	}
	nblocks := ls.execTransactions(w, accessScattered, 0)

	// Serialisation degree: the maximum same-address request count.
	degree := 0
	for l := 0; l < width; l++ {
		if w.addrs[l] < 0 {
			continue
		}
		c := 0
		for m := 0; m < width; m++ {
			if w.addrs[m] == w.addrs[l] {
				c++
			}
		}
		if c > degree {
			degree = c
		}
	}

	ls.stats.AtomicAccesses++
	ls.stats.AtomicSerialisations += int64(degree - 1)
	if degree > ls.stats.MaxAtomicDegree {
		ls.stats.MaxAtomicDegree = degree
	}
	w.atomSer += int64(degree - 1)
	if ls.sites != nil {
		s := &ls.sites[w.pc]
		s.Accesses++
		s.Transactions += int64(nblocks)
		if degree > 1 {
			s.Conflicted++
		}
		md := nblocks
		if degree > md {
			md = degree
		}
		if md > s.MaxDegree {
			s.MaxDegree = md
		}
	}
	if ls.tracer != nil {
		ls.tracer.onMem(w.blockID, w.smIdx, ls.cycle, nblocks, true)
	}

	raw := g.Raw()
	for l := 0; l < width; l++ {
		if w.addrs[l] < 0 {
			continue
		}
		old := raw[w.addrs[l]]
		raw[w.addrs[l]] = atomRMW(op, old, regs[bBase+l], regs[dBase+l])
		regs[dBase+l] = old
	}

	lat := int64(ls.d.cfg.GlobalLatencyCycles) +
		int64(nblocks-1)*int64(ls.d.cfg.ExtraTransactionCycles) +
		int64(degree-1)*int64(ls.d.cfg.ExtraTransactionCycles)
	w.state = wWaiting
	w.readyAt = ls.cycle + lat
	if svc := int64(ls.d.cfg.MemServiceCycles); svc > 0 {
		start := ls.memFree
		if ls.cycle > start {
			start = ls.cycle
		}
		ls.memFree = start + int64(nblocks)*svc
		if ls.memFree > w.readyAt {
			w.readyAt = ls.memFree
		}
	}
	w.pc++
	return nil
}
