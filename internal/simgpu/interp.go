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

// execCond inspects condition register r, column base a, across the
// active lanes, returning the common truth value, whether the lanes agree,
// and whether any lane was active. A uniform symbolic condition costs O(1).
func (w *warp) execCond(r kernel.Reg, a int) (taken, uniform, any bool) {
	if f, ok := w.execAffine(r, a); ok && f.Step == 0 {
		return f.Base != 0, true, w.activeN > 0
	}
	col := w.execColumn(r, a)
	uniform = true
	for l, on := range w.active {
		if !on {
			continue
		}
		v := col[l] != 0
		if !any {
			taken = v
			any = true
		} else if v != taken {
			uniform = false
		}
	}
	return taken, uniform, any
}

// execIfBegin opens an if region on condition register r, column base a,
// for execDec and memo replay. It reports whether any active lane enters
// the body, in which case it saves the mask and masks off the lanes whose
// condition is zero, and whether the active lanes disagree. A uniform
// symbolic condition masks no lane.
func (w *warp) execIfBegin(r kernel.Reg, a int) (enter, divergent bool) {
	if f, ok := w.execAffine(r, a); ok && f.Step == 0 {
		if f.Base == 0 || w.activeN == 0 {
			return false, false
		}
		w.pushMask()
		return true, false
	}
	col := w.execColumn(r, a)
	for l, on := range w.active {
		if !on {
			continue
		}
		if col[l] != 0 {
			enter = true
		} else {
			divergent = true
		}
	}
	if !enter {
		return false, false
	}
	w.pushMask()
	for l, on := range w.active {
		if on && col[l] == 0 {
			w.active[l] = false
			w.activeN--
		}
	}
	return true, divergent
}

// Warp memory accesses
//
// Every access resolves its address through execAccess, for the scheduled
// interpreter and memo replay alike. A fully active warp's address is
// range-checked and classified by execResolve: a symbolic address is a
// contiguous run at step 1 and a broadcast at step 0, checked from its
// first address in O(1); any other address column is written out and
// classified by execClassify. A run spans width distinct banks and at most
// two blocks and moves as one copy; a broadcast hits one bank and one
// block and loads as one fill. Every other pattern, and every partially
// masked warp, is gathered into w.addrs (execGather) and priced by the
// per-lane counters (conflictDegree, execTransactions). All exec* helpers
// are under the atgpu-vet hotalloc contract: they must not allocate.

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
// lanes checked (execPatternBad); a scattered column is checked lane by
// lane. A one-lane column is contiguous.
func execClassify(ac []kernel.Word, size int) (kind accessKind, bad int) {
	a0 := ac[0]
	// Each accumulator stays zero only while every lane fits its pattern.
	var contig, bcast kernel.Word
	for l, a := range ac {
		contig |= a - a0 - kernel.Word(l)
		bcast |= a - a0
	}
	switch {
	case contig == 0:
		return accessContiguous, execPatternBad(accessContiguous, a0, len(ac), size)
	case bcast == 0:
		return accessBroadcast, execPatternBad(accessBroadcast, a0, len(ac), size)
	}
	for l, a := range ac {
		if uint64(a) >= uint64(size) {
			return accessScattered, l
		}
	}
	return accessScattered, -1
}

// execPatternBad returns the first lane out of a memory of size words of
// a width-lane run or broadcast from a0, or -1. Lane 0 is the first bad
// lane when a0 is out of range, else a run first leaves memory at lane
// size−a0.
func execPatternBad(kind accessKind, a0 kernel.Word, width, size int) int {
	switch {
	case uint64(a0) >= uint64(size):
		return 0
	case kind == accessContiguous && a0+kernel.Word(width) > kernel.Word(size):
		return size - int(a0)
	}
	return -1
}

// execAffineKind returns the pattern of a symbolic address f over width
// lanes, as execClassify would find it on the written-out column, or false
// when f is neither a run nor a broadcast.
func execAffineKind(f kernel.Affine, width int) (accessKind, bool) {
	switch {
	case f.Step == 1 || width == 1:
		return accessContiguous, true
	case f.Step == 0:
		return accessBroadcast, true
	}
	return accessScattered, false
}

// execResolve range-checks and classifies the address register of in, a
// fully active access to a memory of size words, returning the pattern,
// lane 0's address and the first lane out of range, or -1. A symbolic run
// or broadcast is never written out; any other address is, and a
// scattered access moves through its column.
func (w *warp) execResolve(in *kernel.DInstr, size int) (kind accessKind, a0 kernel.Word, bad int) {
	if f, ok := w.execAffine(in.Ra, int(in.A)); ok {
		if kind, ok := execAffineKind(f, w.width); ok {
			return kind, f.Base, execPatternBad(kind, f.Base, w.width, size)
		}
	}
	ac := w.execColumn(in.Ra, int(in.A))
	kind, bad = execClassify(ac, size)
	return kind, ac[0], bad
}

// execMove moves the fully active access in, resolved in range by
// execResolve, to or from mem: a run is one copy, a broadcast load leaves
// the destination uniform in O(1) and a broadcast store writes the last
// lane's value (lanes land in ascending order, so the highest lane's value
// stays), and a scattered access moves lane by lane through its
// written-out address column.
func (w *warp) execMove(in *kernel.DInstr, mem []kernel.Word, kind accessKind, a0 kernel.Word) {
	width := w.width
	a := int(in.A)
	if in.Op == kernel.OpLdGlobal || in.Op == kernel.OpLdShared {
		d := int(in.D)
		dst := w.regs[d : d+width : d+width]
		switch kind {
		case accessContiguous:
			copy(dst, mem[a0:a0+kernel.Word(width)])
		case accessBroadcast:
			w.execSetAffine(in.Rd, d, kernel.Uniform(mem[a0]))
			return
		default:
			// dst may be the address column: lane l reads it first.
			for l, addr := range w.regs[a : a+width : a+width] {
				dst[l] = mem[addr]
			}
		}
		w.execWrote(in.Rd)
		return
	}
	src := w.execColumn(in.Rb, int(in.B))
	switch kind {
	case accessContiguous:
		copy(mem[a0:], src)
	case accessBroadcast:
		mem[a0] = src[width-1]
	default:
		for l, addr := range w.regs[a : a+width : a+width] {
			mem[addr] = src[l]
		}
	}
}

// execGather range-checks the active lanes' addresses in register r,
// column base aBase, against a memory of size words and gathers them into
// w.addrs, -1 marking an inactive lane. It returns the first out-of-range
// lane, or -1.
func execGather(w *warp, r kernel.Reg, aBase, size int) int {
	ac := w.execColumn(r, aBase)
	for l, on := range w.active {
		if !on {
			w.addrs[l] = -1
			continue
		}
		addr := ac[l]
		if uint64(addr) >= uint64(size) {
			return l
		}
		w.addrs[l] = int(addr)
	}
	return -1
}

// execMoveGathered moves the gathered access in lane by lane in ascending
// order: each lane with an address in w.addrs loads into Rd, whose masked
// lanes keep their values, or stores from Rb.
func (w *warp) execMoveGathered(in *kernel.DInstr, mem []kernel.Word) {
	if in.Op == kernel.OpLdGlobal || in.Op == kernel.OpLdShared {
		dc := w.execColumn(in.Rd, int(in.D))
		for l, a := range w.addrs {
			if a >= 0 {
				dc[l] = mem[a]
			}
		}
		w.execWrote(in.Rd)
		return
	}
	sc := w.execColumn(in.Rb, int(in.B))
	for l, a := range w.addrs {
		if a >= 0 {
			mem[a] = sc[l]
		}
	}
}

// execAccess range-checks the warp-wide load or store in against mem and
// moves its data, for execGlobal, execShared and memo replay. A fully
// active warp resolves through execResolve; when price is set a scattered
// one is also gathered into w.addrs, which the per-lane pricing reads. A
// masked warp is always gathered and reports accessScattered. It returns
// the pattern and lane 0's address for pricing, or the range trap, in
// which case nothing has moved.
func (w *warp) execAccess(in *kernel.DInstr, mem []kernel.Word, price bool) (kind accessKind, a0 kernel.Word, err error) {
	size := len(mem)
	if w.activeN == w.width {
		kind, a0, bad := w.execResolve(in, size)
		if bad >= 0 {
			return kind, a0, execRangeErr(in.Op, bad, w.execColumn(in.Ra, int(in.A))[bad], size)
		}
		if price && kind == accessScattered {
			execGather(w, in.Ra, int(in.A), size)
		}
		w.execMove(in, mem, kind, a0)
		return kind, a0, nil
	}
	if bad := execGather(w, in.Ra, int(in.A), size); bad >= 0 {
		return accessScattered, 0, execRangeErr(in.Op, bad, w.regs[int(in.A)+bad], size)
	}
	w.execMoveGathered(in, mem)
	return accessScattered, 0, nil
}

// execRangeErr is the trap of a load or store in whose lane l addresses
// addr, outside a memory of size words.
func execRangeErr(op kernel.Op, l int, addr kernel.Word, size int) error {
	if op == kernel.OpLdShared || op == kernel.OpStShared {
		return sharedRangeErr(op, l, addr, size)
	}
	return globalRangeErr(op, l, addr, size)
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
// puts the warp to sleep for the transaction latency.
func (ls *launchState) execGlobal(w *warp, in *kernel.DInstr) error {
	op := in.Op
	kind, a0, err := w.execAccess(in, ls.d.global.Raw(), true)
	if err != nil {
		return err
	}
	nblocks := ls.execTransactions(w, kind, a0)
	if nblocks == 0 {
		// Fully masked access: costs the issue slot only.
		w.pc++
		return nil
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
// analysis and optional serialisation.
func (ls *launchState) execShared(w *warp, in *kernel.DInstr) error {
	kind, _, err := w.execAccess(in, w.shared.Raw(), true)
	if err != nil {
		return err
	}
	if w.activeN == 0 {
		w.pc++
		return nil
	}
	var degree int
	switch kind {
	case accessContiguous:
		// width consecutive words lie in width distinct banks.
		degree = 1
	case accessBroadcast:
		// One word, one bank: every lane queues on it unless the
		// hardware broadcasts.
		degree = ls.width
		if ls.d.cfg.BroadcastSharedReads {
			degree = 1
		}
	default:
		degree = ls.conflictDegree(w) // reads w.addrs
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
