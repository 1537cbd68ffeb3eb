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

// errBlockVariant is memo replay's failure on a control condition that
// differs between the blocks of a batch: they would not share a trace.
var errBlockVariant = errors.New("condition differs between batched blocks (certificate violated)")

// execCond resolves the uniform branch on condition register r, column
// base a, across the active lanes, returning the common truth value. The
// active lanes of a block must agree (else ErrDivergentLoop), and in a
// batch every block must agree with the first (else errBlockVariant);
// w.trapBlock names the first block that fails. A uniform symbolic
// condition costs O(1).
func (w *warp) execCond(r kernel.Reg, a int) (taken bool, err error) {
	if w.activeN == 0 {
		return false, errNoActiveBr
	}
	if f, ok := w.execForm(r, a); ok && f.uniform() {
		return f.Base != 0, nil
	}
	col := w.execColumn(r, a)
	for b := 0; b < w.blocks; b++ {
		row := col[b*w.width : (b+1)*w.width]
		any, v := false, false
		for l, on := range w.active[:w.width] {
			if !on {
				continue
			}
			if t := row[l] != 0; !any {
				v, any = t, true
			} else if t != v {
				w.trapBlock = b
				return false, ErrDivergentLoop
			}
		}
		if b == 0 {
			taken = v
		} else if v != taken {
			w.trapBlock = b
			return false, errBlockVariant
		}
	}
	return taken, nil
}

// execIfBegin opens an if region on condition register r, column base a,
// for execDec and memo replay. It reports whether any active lane enters
// the body, in which case it saves the mask and masks off the lanes whose
// condition is zero, and whether the active lanes disagree. A uniform
// symbolic condition masks no lane. The mask is a batch's: every block's
// active lanes must agree with the first block's lane for lane, or the
// region fails with errBlockVariant naming the first block that does not
// (w.trapBlock).
func (w *warp) execIfBegin(r kernel.Reg, a int) (enter, divergent bool, err error) {
	f, sym := w.execForm(r, a)
	if sym && f.uniform() {
		if f.Base == 0 || w.activeN == 0 {
			return false, false, nil
		}
		w.pushMask()
		return true, false, nil
	}
	width := w.width
	col := w.execColumn(r, a)
	if !sym || f.BStep != 0 {
		// A form with no block step repeats block 0's lanes.
		for b := 1; b < w.blocks; b++ {
			row := col[b*width : (b+1)*width]
			for l, on := range w.active[:width] {
				if on && (row[l] != 0) != (col[l] != 0) {
					w.trapBlock = b
					return false, false, errBlockVariant
				}
			}
		}
	}
	for l, on := range w.active[:width] {
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
		return false, false, nil
	}
	w.pushMask()
	for l, on := range w.active[:width] {
		if on && col[l] == 0 {
			w.active[l] = false
			w.activeN--
		}
	}
	for b := 1; b < w.blocks; b++ {
		copy(w.active[b*width:(b+1)*width], w.active[:width])
	}
	return true, divergent, nil
}

// Warp memory accesses
//
// Every access resolves its address through execAccess, for the scheduled
// interpreter and memo replay alike; in a batch each block's lanes address
// global memory or the block's own shared memory, a row-interleaved slab
// (see warp.shared). Every block is checked before any data moves, so a
// trap leaves memory and registers as they were. A fully active one-block
// warp, every scheduled warp among them, takes lane-only forms
// (execResolve), so the scheduled interpreter pays nothing for the block
// axis: its address is range-checked and classified, a symbolic run at
// step 1 or broadcast at step 0 in O(1) from its first address, any other
// column by execClassify. A run spans width distinct banks and at most two
// blocks and moves as one copy; a broadcast hits one bank and one block
// and loads as one fill. A fully active batch whose address is a symbolic
// run or broadcast moves through execMoveForm: global runs whose block
// step is the run length, and shared runs at one aligned address in every
// block, are one copy across the batch, other runs a copy or two per
// block. Every other pattern, and every
// partially masked warp, is gathered into w.addrs (execGather), lane by
// lane, and on a scheduled warp priced by the per-lane counters
// (conflictDegree, execTransactions). All exec* helpers are under the
// atgpu-vet hotalloc contract: they must not allocate.

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

// execAccess range-checks the load or store in against each block's
// memory and moves its data, for execGlobal, execShared and memo replay.
// mem is global memory of size words, or with shared set the warp's shared
// slab, size words per block. A fully active scheduled warp resolves its
// symbolic address or classifies its written-out address column through
// execResolve; when price is set a scattered one is also gathered into
// w.addrs, which the per-lane pricing reads. A masked warp is always
// gathered and reports accessScattered, as does a batch (execAccessBatch),
// which is never priced. It returns the pattern and lane 0 address for
// pricing, or the range trap of the first block out of range
// (w.trapBlock), in which case nothing has moved.
func (w *warp) execAccess(in *kernel.DInstr, mem []kernel.Word, size int, shared, price bool) (kind accessKind, a0 kernel.Word, err error) {
	if w.stride() > w.width {
		return accessScattered, 0, w.execAccessBatch(in, mem, size, shared)
	}
	if w.activeN < w.width {
		return accessScattered, 0, w.execAccessGathered(in, mem, size, shared)
	}
	kind, a0, bad, addr := w.execResolve(in, size)
	if bad >= 0 {
		return kind, a0, execRangeErr(in.Op, bad, addr, size)
	}
	if price && kind == accessScattered {
		execGather(w, in.Ra, int(in.A), size, shared)
	}
	w.execMove(in, mem, kind, a0)
	return kind, a0, nil
}

// execAccessGathered gathers the access in over the active lanes and moves
// it lane by lane, or returns the range trap of its first lane out of range.
func (w *warp) execAccessGathered(in *kernel.DInstr, mem []kernel.Word, size int, shared bool) error {
	if bad := execGather(w, in.Ra, int(in.A), size, shared); bad >= 0 {
		return w.execRangeTrap(in.Op, bad, w.regs[int(in.A)+bad], size)
	}
	w.execMoveGathered(in, mem)
	return nil
}

// execResolve range-checks and classifies the address register of in, a
// fully active scheduled warp's access to a memory of size words,
// returning the pattern, lane 0's address, and the first lane out of
// range, or -1, with its address. A symbolic run or broadcast is never
// written out; any other address is, and a scattered access moves through
// its column.
func (w *warp) execResolve(in *kernel.DInstr, size int) (kind accessKind, a0 kernel.Word, bad int, addr kernel.Word) {
	if f, ok := w.execAffine(in.Ra, int(in.A)); ok {
		if kind, ok := execAffineKind(f, w.width); ok {
			bad = execPatternBad(kind, f.Base, w.width, size)
			return kind, f.Base, bad, f.Lane(max(bad, 0))
		}
	}
	ac := w.execColumn(in.Ra, int(in.A))
	kind, bad = execClassify(ac, size)
	return kind, ac[0], bad, ac[max(bad, 0)]
}

// execMove moves a fully active scheduled warp's access in, resolved in
// range by execResolve, to or from mem: a broadcast load leaves the
// destination uniform in O(1), and every other access moves as
// execMoveBlock moves a block.
func (w *warp) execMove(in *kernel.DInstr, mem []kernel.Word, kind accessKind, a0 kernel.Word) {
	if !isLoad(in.Op) {
		w.execColumn(in.Rb, int(in.B))
		w.execMoveBlock(in, mem, 0, kind, a0)
		return
	}
	if kind == accessBroadcast {
		w.execSetAffine(in.Rd, int(in.D), kernel.Uniform(mem[a0]))
		return
	}
	w.execMoveBlock(in, mem, 0, kind, a0)
	w.execWrote(in.Rd)
}

// execAccessBatch is execAccess for a batch warp: a fully active batch
// whose symbolic address is a run or a broadcast in block 0 is one in
// every block, checked block by block from each block's first address in
// O(1) and moved by execMoveForm; any other access is gathered.
func (w *warp) execAccessBatch(in *kernel.DInstr, mem []kernel.Word, size int, shared bool) error {
	if f, ok := w.execForm(in.Ra, int(in.A)); ok && w.activeN == w.width {
		if kind, ok := execAffineKind(f.Affine, w.width); ok {
			for b := 0; b < w.blocks; b++ {
				a0 := f.row(b).Base
				if bad := execPatternBad(kind, a0, w.width, size); bad >= 0 {
					return w.execRangeTrap(in.Op, b*w.width+bad, a0+f.Step*kernel.Word(bad), size)
				}
			}
			w.execMoveForm(in, mem, shared, kind, f)
			return nil
		}
	}
	return w.execAccessGathered(in, mem, size, shared)
}

// isLoad reports a load (else a store) of a memory instruction.
func isLoad(op kernel.Op) bool { return op == kernel.OpLdGlobal || op == kernel.OpLdShared }

// execMoveForm moves a batch's fully active access in, whose symbolic
// address f is in range as kind in every block, to or from mem: global
// memory, or with shared set the batch's slab. A global broadcast load
// that every block reads from one word leaves the destination uniform in
// O(1), and any other broadcast load leaves each block's word in the
// block's lane 0 (formRows). Global runs that abut (block step = width)
// and shared runs at one width-aligned address in every block (block step
// 0) each lie in one stretch of mem and move as one copy. Any other
// global access moves block by block (execMoveBlock), and any other
// shared one through execMoveSlab.
func (w *warp) execMoveForm(in *kernel.DInstr, mem []kernel.Word, shared bool, kind accessKind, f batchAffine) {
	width := w.width
	load := isLoad(in.Op)
	d := int(in.D)
	if load && kind == accessBroadcast {
		if !shared && f.BStep == 0 {
			w.execSetForm(in.Rd, d, batchAffine{Affine: kernel.Uniform(mem[f.Base])})
			return
		}
		for b := 0; b < w.blocks; b++ {
			a := int(f.row(b).Base)
			if shared {
				a = w.slot(b, a)
			}
			w.regs[d+b*width] = mem[a]
		}
		w.form[in.Rd] = formRows
		return
	}
	var col []kernel.Word
	if load {
		col = w.regs[d : d+w.lanes]
	} else {
		col = w.execColumn(in.Rb, int(in.B))
	}
	run := kind == accessContiguous
	switch {
	case run && !shared && f.BStep == kernel.Word(width):
		execCopy(load, col, mem[f.Base:])
	case run && shared && f.BStep == 0 && f.Base%kernel.Word(width) == 0:
		execCopy(load, col, mem[w.slot(0, int(f.Base)):])
	case shared:
		w.execMoveSlab(load, col, mem, kind, f)
	default:
		for b := 0; b < w.blocks; b++ {
			w.execMoveBlock(in, mem, b, kind, f.row(b).Base)
		}
	}
	if load {
		w.execWrote(in.Rd)
	}
}

// execMoveSlab moves a batch's shared run, or broadcast store, at symbolic
// address f, in range in every block, between the register column col and
// the slab mem, block by block: a run fills the rest of its first row and
// the start of the next, and a broadcast store writes the block's last
// lane, as lanes landing in ascending order leave it.
func (w *warp) execMoveSlab(load bool, col, mem []kernel.Word, kind accessKind, f batchAffine) {
	width := w.width
	for b := 0; b < w.blocks; b++ {
		a := int(f.row(b).Base)
		c, i := col[b*width:(b+1)*width], w.slot(b, a)
		if kind == accessBroadcast {
			mem[i] = c[width-1]
			continue
		}
		head := width - a%width
		execCopy(load, c[:head], mem[i:i+head])
		if head < width {
			execCopy(load, c[head:], mem[i+head-width+w.stride():])
		}
	}
}

// execCopy copies a register column into m, or m into the column on a
// load.
func execCopy(load bool, col, m []kernel.Word) {
	if load {
		copy(col, m)
		return
	}
	copy(m, col)
}

// execMoveBlock moves block b's lanes of the fully active access in, in
// range as kind from a0, to or from m, global memory or a one-block warp's
// shared memory: a run is one
// copy, a broadcast load fills the lanes and a broadcast store writes the
// last lane's value (lanes land in ascending order, so the highest lane's
// value stays), and a scattered access moves lane by lane through its
// written-out address column. A store's source must be written out.
func (w *warp) execMoveBlock(in *kernel.DInstr, m []kernel.Word, b int, kind accessKind, a0 kernel.Word) {
	width, lo := w.width, b*w.width
	if isLoad(in.Op) {
		d := int(in.D) + lo
		dst := w.regs[d : d+width : d+width]
		switch kind {
		case accessContiguous:
			copy(dst, m[a0:])
		case accessBroadcast:
			v := m[a0]
			for l := range dst {
				dst[l] = v
			}
		default:
			// dst may be the address column: lane l reads it first.
			a := int(in.A) + lo
			for l, addr := range w.regs[a : a+width : a+width] {
				dst[l] = m[addr]
			}
		}
		return
	}
	s := int(in.B) + lo
	src := w.regs[s : s+width : s+width]
	switch kind {
	case accessContiguous:
		copy(m[a0:], src)
	case accessBroadcast:
		m[a0] = src[width-1]
	default:
		a := int(in.A) + lo
		for l, addr := range w.regs[a : a+width : a+width] {
			m[addr] = src[l]
		}
	}
}

// execGather range-checks the active lanes' addresses in register r,
// column base aBase, against each block's memory of size words and
// gathers them into w.addrs, -1 marking an inactive lane: as they are for
// global memory, and with shared set as indexes into the warp's shared
// slab (slot). It returns the first out-of-range lane of the column, or
// -1.
func execGather(w *warp, r kernel.Reg, aBase, size int, shared bool) int {
	ac := w.execColumn(r, aBase)
	slab := shared && w.stride() > w.width
	for b := 0; b < w.blocks; b++ {
		lo := b * w.width
		for l, on := range w.active[:w.width] {
			if !on {
				w.addrs[lo+l] = -1
				continue
			}
			addr := ac[lo+l]
			if uint64(addr) >= uint64(size) {
				return lo + l
			}
			w.addrs[lo+l] = int(addr)
			if slab {
				w.addrs[lo+l] = w.slot(b, int(addr))
			}
		}
	}
	return -1
}

// execMoveGathered moves the gathered access in lane by lane in ascending
// order: each lane with an index in w.addrs loads into Rd, whose masked
// lanes keep their values, or stores from Rb.
func (w *warp) execMoveGathered(in *kernel.DInstr, mem []kernel.Word) {
	addrs := w.addrs[:w.lanes]
	if isLoad(in.Op) {
		dc := w.execColumn(in.Rd, int(in.D))
		for l, a := range addrs {
			if a >= 0 {
				dc[l] = mem[a]
			}
		}
		w.execWrote(in.Rd)
		return
	}
	sc := w.execColumn(in.Rb, int(in.B))
	for l, a := range addrs {
		if a >= 0 {
			mem[a] = sc[l]
		}
	}
}

// execRangeTrap records the block of column lane i, whose address addr
// lies outside a memory of size words, and returns the access's trap.
func (w *warp) execRangeTrap(op kernel.Op, i int, addr kernel.Word, size int) error {
	w.trapBlock = i / w.width
	return execRangeErr(op, i%w.width, addr, size)
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
	global := ls.d.global.Raw()
	kind, a0, err := w.execAccess(in, global, len(global), false, true)
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
	kind, _, err := w.execAccess(in, w.shared, w.sharedWords, true, true)
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
