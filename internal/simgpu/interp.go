package simgpu

import (
	"errors"
	"fmt"

	"atgpu/internal/kernel"
)

// Interpreter errors.
var (
	errDivByZero  = errors.New("division by zero")
	errAddrRange  = errors.New("address out of range")
	errMaskPop    = errors.New("if.end without saved mask")
	errBadOpcode  = errors.New("undefined opcode")
	errPCRange    = errors.New("program counter out of range")
	errNoActiveBr = errors.New("uniform branch with no active lanes")
)

// uniformCond inspects register column a across active lanes, returning the
// common truth value, whether the lanes agree, and whether any lane was
// active.
func (w *warp) uniformCond(a int) (taken, uniform, any bool) {
	uniform = true
	for l := 0; l < len(w.active); l++ {
		if !w.active[l] {
			continue
		}
		v := w.regs[a+l] != 0
		if !any {
			taken = v
			any = true
		} else if v != taken {
			uniform = false
		}
	}
	return taken, uniform, any
}

// Warp memory accesses
//
// A fully active warp's address column is range-checked and classified
// by execClassify. The two patterns that make up nearly every access of
// the tiled kernels cost O(1) to price: a contiguous run spans width
// distinct banks and at most two blocks and loads or stores as one copy;
// a broadcast hits one bank and one block and loads as one fill. Every
// other pattern, and every partially masked warp, is gathered into
// w.addrs (execGather) and priced by the per-lane counters
// (conflictDegree, execTransactions). Memo replay moves its all-active
// data through the same execLoad/execStore. All exec* helpers are under
// the atgpu-vet hotalloc contract: they must not allocate.

// accessKind is the pattern of a fully active warp's address column.
type accessKind uint8

const (
	// accessScattered is any pattern without an O(1) rule: it is
	// priced lane by lane.
	accessScattered accessKind = iota
	// accessContiguous is addr[l] == addr[0]+l on every lane l.
	accessContiguous
	// accessBroadcast is every lane on the word addr[0].
	accessBroadcast
)

// execClassify range-checks the fully active address column ac of an
// access to a memory of size words and classifies its pattern. bad is the
// first lane out of range, or -1. A run or a broadcast needs only its end
// lanes checked: lane 0 is the first bad lane when addr[0] is out of
// range, else a run first leaves memory at lane size−addr[0]. A scattered
// column is checked lane by lane. A one-lane column is contiguous.
func execClassify(ac []kernel.Word, size int) (kind accessKind, bad int) {
	a0 := ac[0]
	// Each accumulator stays zero only while every lane fits its pattern.
	var contig, bcast kernel.Word
	for l, a := range ac {
		contig |= a - a0 - kernel.Word(l)
		bcast |= a - a0
	}
	switch {
	case uint64(a0) >= uint64(size) && (contig == 0 || bcast == 0):
		return accessScattered, 0
	case contig == 0:
		if a0+kernel.Word(len(ac)) > kernel.Word(size) {
			return accessContiguous, size - int(a0)
		}
		return accessContiguous, -1
	case bcast == 0:
		return accessBroadcast, -1
	}
	for l, a := range ac {
		if uint64(a) >= uint64(size) {
			return accessScattered, l
		}
	}
	return accessScattered, -1
}

// execLoad loads the fully active address column ac from mem into the
// register column dst. A run is one copy and a broadcast one fill, both
// range-checked by execClassify. A scattered column is range-checked and
// loaded lane by lane; the first out-of-range lane is returned, with the
// lanes below it already loaded, or -1. dst may alias ac.
func execLoad(dst, ac, mem []kernel.Word, kind accessKind) (bad int) {
	switch kind {
	case accessContiguous:
		a0 := ac[0]
		copy(dst, mem[a0:a0+kernel.Word(len(dst))])
	case accessBroadcast:
		v := mem[ac[0]]
		for l := range dst {
			dst[l] = v
		}
	default:
		for l, a := range ac {
			if uint64(a) >= uint64(len(mem)) {
				return l
			}
			dst[l] = mem[a]
		}
	}
	return -1
}

// execStore stores the register column src to the fully active address
// column ac of mem, checked as execLoad checks. Lanes land in ascending
// order, so where lanes share a word the highest lane's value stays: a
// broadcast is one write of the last lane's value. A scattered store that
// traps has written the lanes below the bad one; the interpreter, which
// must not, range-checks the whole column with execClassify first.
func execStore(mem, ac, src []kernel.Word, kind accessKind) (bad int) {
	switch kind {
	case accessContiguous:
		copy(mem[ac[0]:], src)
	case accessBroadcast:
		mem[ac[0]] = src[len(src)-1]
	default:
		for l, a := range ac {
			if uint64(a) >= uint64(len(mem)) {
				return l
			}
			mem[a] = src[l]
		}
	}
	return -1
}

// execGather range-checks the active lanes' addresses in register column
// aBase against a memory of size words and gathers them into w.addrs, -1
// marking an inactive lane. It returns the first out-of-range lane, or -1.
func execGather(w *warp, aBase, size int) int {
	for l, on := range w.active {
		if !on {
			w.addrs[l] = -1
			continue
		}
		addr := w.regs[aBase+l]
		if uint64(addr) >= uint64(size) {
			return l
		}
		w.addrs[l] = int(addr)
	}
	return -1
}

// execMoveGathered moves a gathered access lane by lane in ascending
// order: each lane with an address in w.addrs loads into register column
// dBase or stores from column sBase.
func execMoveGathered(w *warp, mem []kernel.Word, load bool, dBase, sBase int) {
	for l, a := range w.addrs {
		if a < 0 {
			continue
		}
		if load {
			w.regs[dBase+l] = mem[a]
		} else {
			mem[a] = w.regs[sBase+l]
		}
	}
}

// globalRangeErr and sharedRangeErr are the traps for lane l's address
// lying outside global memory or the block's M-alloc words.
func globalRangeErr(op kernel.Op, l int, addr kernel.Word, size int) error {
	return fmt.Errorf("%w: global %s lane %d addr %d (G=%d)", errAddrRange, op, l, addr, size)
}

func sharedRangeErr(op kernel.Op, l int, addr kernel.Word, size int) error {
	return fmt.Errorf("%w: shared %s lane %d addr %d (M-alloc=%d)", errAddrRange, op, l, addr, size)
}

// execGlobal performs a warp-wide global memory access: checks the active
// lanes' addresses, counts coalesced transactions, moves the data, and
// puts the warp to sleep for the transaction latency. The register
// columns arrive as precomputed flat bases.
func (ls *launchState) execGlobal(w *warp, op kernel.Op, dBase, aBase, sBase int) error {
	width := ls.width
	regs := w.regs
	raw := ls.d.global.Raw()
	gsize := len(raw)

	var nblocks int
	if w.activeN == width {
		ac := regs[aBase : aBase+width : aBase+width]
		kind, bad := execClassify(ac, gsize)
		if bad >= 0 {
			return globalRangeErr(op, bad, ac[bad], gsize)
		}
		if kind == accessScattered {
			execGather(w, aBase, gsize) // execTransactions reads w.addrs
		}
		nblocks = ls.execTransactions(w, kind, ac[0])
		if op == kernel.OpLdGlobal {
			execLoad(regs[dBase:dBase+width], ac, raw, kind)
		} else {
			execStore(raw, ac, regs[sBase:sBase+width], kind)
		}
	} else {
		if bad := execGather(w, aBase, gsize); bad >= 0 {
			return globalRangeErr(op, bad, regs[aBase+bad], gsize)
		}
		nblocks = ls.execTransactions(w, accessScattered, 0)
		if nblocks == 0 {
			// Fully masked access: costs the issue slot only.
			w.pc++
			return nil
		}
		execMoveGathered(w, raw, op == kernel.OpLdGlobal, dBase, sBase)
	}

	ls.stats.GlobalAccesses++
	ls.stats.GlobalTransactions += int64(nblocks)
	if nblocks > 1 {
		ls.stats.UncoalescedAccesses++
	}
	if ls.sites != nil {
		s := &ls.sites[w.pc]
		s.Accesses++
		s.Transactions += int64(nblocks)
		if nblocks > 1 {
			s.Uncoalesced++
		}
		if nblocks > s.MaxDegree {
			s.MaxDegree = nblocks
		}
	}
	if ls.tracer != nil {
		ls.tracer.onMem(w.blockID, w.smIdx, ls.cycle, nblocks, op == kernel.OpStGlobal)
	}

	lat := int64(ls.d.cfg.GlobalLatencyCycles) +
		int64(nblocks-1)*int64(ls.d.cfg.ExtraTransactionCycles)
	w.state = wWaiting
	w.readyAt = ls.cycle + lat
	// Bandwidth: the device-wide controller serialises transactions at
	// MemServiceCycles apiece; a warp's request completes no earlier than
	// the controller drains it, so saturated DRAM backs up into warp
	// stalls that concurrency cannot hide.
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

// execTransactions returns l, the distinct width-word memory blocks a
// warp-wide global access touches; global accesses and global atomics
// both count through it. A classified access costs O(1): a contiguous
// run from a0 fills one block when a0 is block-aligned and straddles two
// otherwise, and a broadcast reads one. Any other access counts the
// distinct blocks of the gathered addresses in w.addrs; 0 means no lane
// was active.
func (ls *launchState) execTransactions(w *warp, kind accessKind, a0 kernel.Word) int {
	bs := ls.width // block size equals warp width in the model
	switch kind {
	case accessContiguous:
		if a0%kernel.Word(bs) == 0 {
			return 1
		}
		return 2
	case accessBroadcast:
		return 1
	}
	// Warps are small; a linear scan over the collected blocks avoids
	// allocation. The scratch is sized from the launch width (a warp
	// touches at most width blocks).
	blocks := ls.blockScratch
	nblocks := 0
	for _, a := range w.addrs {
		if a < 0 {
			continue
		}
		blk := a / bs
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
	return nblocks
}

// execShared performs a warp-wide shared memory access with bank-conflict
// analysis and optional serialisation. Register columns arrive as
// precomputed flat bases.
func (ls *launchState) execShared(w *warp, op kernel.Op, dBase, aBase, sBase int) error {
	width := ls.width
	regs := w.regs
	raw := w.shared.Raw()
	ssize := len(raw)

	var degree int
	if w.activeN == width {
		ac := regs[aBase : aBase+width : aBase+width]
		kind, bad := execClassify(ac, ssize)
		if bad >= 0 {
			return sharedRangeErr(op, bad, ac[bad], ssize)
		}
		switch kind {
		case accessContiguous:
			// width consecutive words lie in width distinct banks.
			degree = 1
		case accessBroadcast:
			// One word, one bank: every lane queues on it unless the
			// hardware broadcasts.
			degree = width
			if ls.d.cfg.BroadcastSharedReads {
				degree = 1
			}
		default:
			execGather(w, aBase, ssize) // conflictDegree reads w.addrs
			degree = ls.conflictDegree(w)
		}
		if op == kernel.OpLdShared {
			execLoad(regs[dBase:dBase+width], ac, raw, kind)
		} else {
			execStore(raw, ac, regs[sBase:sBase+width], kind)
		}
	} else {
		if w.activeN == 0 {
			w.pc++
			return nil
		}
		if bad := execGather(w, aBase, ssize); bad >= 0 {
			return sharedRangeErr(op, bad, regs[aBase+bad], ssize)
		}
		degree = ls.conflictDegree(w)
		execMoveGathered(w, raw, op == kernel.OpLdShared, dBase, sBase)
	}

	ls.stats.SharedAccesses++
	if degree > 1 {
		ls.stats.BankConflicts++
		if degree > ls.stats.MaxConflictDegree {
			ls.stats.MaxConflictDegree = degree
		}
	}
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

	lat := int64(ls.d.cfg.SharedLatencyCycles)
	if ls.d.cfg.SerialiseBankConflicts && degree > 1 {
		lat *= int64(degree)
	}
	w.state = wWaiting
	w.readyAt = ls.cycle + lat
	w.pc++
	return nil
}

// conflictDegree computes the serialisation factor of the gathered shared
// access in w.addrs. With BroadcastSharedReads, the common case of all
// active lanes hitting one identical word is recognised as degree 1;
// otherwise the degree is the maximum per-bank request count.
func (ls *launchState) conflictDegree(w *warp) int {
	width := ls.width
	if ls.d.cfg.BroadcastSharedReads {
		same := true
		first := -1
		for l := 0; l < width; l++ {
			if w.addrs[l] < 0 {
				continue
			}
			if first < 0 {
				first = w.addrs[l]
			} else if w.addrs[l] != first {
				same = false
				break
			}
		}
		if same {
			return 1
		}
	}
	counts := ls.bankCounts
	for i := range counts {
		counts[i] = 0
	}
	max := 0
	for l := 0; l < width; l++ {
		if w.addrs[l] < 0 {
			continue
		}
		bk := w.addrs[l] % width
		counts[bk]++
		if counts[bk] > max {
			max = counts[bk]
		}
	}
	return max
}
