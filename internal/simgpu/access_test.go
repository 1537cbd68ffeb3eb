package simgpu

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"atgpu/internal/kernel"
	"atgpu/internal/mem"
)

// The workload differential tests against the reference stepper see a
// fault in the classified fast paths only where a builtin kernel happens
// to exercise it. These tests drive single warp accesses through
// execShared/execGlobal and memo replay's replayMem and compare each with a
// per-lane reference: degree and transaction count against the mem
// package's oracles, loaded registers and resulting memory against a
// lane-order loop, and traps against the interpreter's lane and text.

// accessCase is one warp-wide memory access.
type accessCase struct {
	name      string
	op        kernel.Op
	addrs     []int64 // per-lane address
	active    []bool  // nil: every lane active
	broadcast bool    // Config.BroadcastSharedReads
	// symbolic holds the lane-affine address column in symbolic form
	// rather than written out.
	symbolic bool
}

// Register layout of the rig: r0 the load destination, r1 the address
// column, r2 the store source.
const (
	rigDst = iota
	rigAddr
	rigSrc
	rigRegs
)

// rigSizes returns the shared and global sizes of a width-lane rig: room
// for a few contiguous runs, small enough that random addresses also
// fall out of range.
func rigSizes(width int) (shared, global int) { return 3*width + 5, 4*width + 3 }

// newAccessRig builds a launch state holding one warp ready to issue the
// access at pc 0, with distinct values in memory and registers.
func newAccessRig(t *testing.T, c accessCase) (*launchState, *warp) {
	t.Helper()
	width := len(c.addrs)
	sharedWords, globalWords := rigSizes(width)
	cfg := Tiny()
	cfg.WarpWidth = width
	cfg.SharedWords = sharedWords
	cfg.GlobalWords = globalWords
	cfg.BroadcastSharedReads = c.broadcast
	cfg.SerialiseBankConflicts = true
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.global.Raw() {
		d.global.Raw()[i] = kernel.Word(1000 + i)
	}
	ls := &launchState{
		d:            d,
		width:        width,
		bankCounts:   make([]int, width),
		blockScratch: make([]int, width),
		sites:        make([]SiteStat, 1),
	}
	w := newWarp(warpShape{width, 1, rigRegs, sharedWords})
	w.addrs = make([]int, width)
	w.reset(0, 1)
	for i := range w.shared {
		w.shared[i] = kernel.Word(2000 + i)
	}
	w.setColumn(rigDst, laneAddrs(width, func(l int) int64 { return kernel.Word(-7 - l) }))
	w.setColumn(rigAddr, c.addrs)
	w.setColumn(rigSrc, laneAddrs(width, func(l int) int64 { return kernel.Word(500 + l) }))
	if c.symbolic {
		f, ok := laneAffine(c.addrs)
		if !ok {
			t.Fatalf("%s: address column %v is not lane-affine", c.name, c.addrs)
		}
		w.execSetForm(rigAddr, rigAddr*width, batchAffine{Affine: f})
	}
	for l := 0; l < width; l++ {
		if c.active != nil && !c.active[l] {
			w.active[l] = false
			w.activeN--
		}
	}
	return ls, w
}

// setColumn writes register r's column lane by lane and marks it written
// out, as an instruction that computes it lane by lane does.
func (w *warp) setColumn(r kernel.Reg, col []kernel.Word) {
	copy(w.regs[int(r)*w.stride():], col[:w.lanes])
	w.execWrote(r)
}

// flatRegs writes every register out and returns the register file.
func (w *warp) flatRegs() []kernel.Word {
	for base := 0; base < len(w.regs); base += w.stride() {
		w.execColumn(kernel.Reg(base/w.stride()), base)
	}
	return w.regs
}

// laneAffine returns the symbolic form of column c, or false when c is not
// lane-affine.
func laneAffine(c []kernel.Word) (kernel.Affine, bool) {
	f := kernel.Uniform(c[0])
	if len(c) > 1 {
		f.Step = c[1] - c[0]
	}
	for l, v := range c {
		if f.Lane(l) != v {
			return kernel.Affine{}, false
		}
	}
	return f, true
}

// memOf returns the memory the access targets and whether it is shared:
// a one-block warp's shared memory is its slab's first sharedWords words.
func memOf(ls *launchState, w *warp, op kernel.Op) ([]kernel.Word, bool) {
	if op == kernel.OpLdShared || op == kernel.OpStShared {
		return w.shared[:w.sharedWords], true
	}
	return ls.d.global.Raw(), false
}

// referenceAccess applies c lane by lane on a fresh rig and returns the
// expected registers, memory, cost (conflict degree for shared, l for
// global; 0 when no lane is active) and trap text ("" for none).
func referenceAccess(t *testing.T, c accessCase) (regs, memory []kernel.Word, cost int, trap string) {
	t.Helper()
	ls, w := newAccessRig(t, c)
	width := len(c.addrs)
	raw, shared := memOf(ls, w, c.op)
	load := c.op == kernel.OpLdShared || c.op == kernel.OpLdGlobal
	var addrs []int
	n := 0
	for l := 0; l < width; l++ {
		if !w.active[l] {
			addrs = append(addrs, 0)
			continue
		}
		n++
		a := c.addrs[l]
		if a < 0 || a >= int64(len(raw)) {
			if shared {
				trap = fmt.Sprintf("address out of range: shared %s lane %d addr %d (M-alloc=%d)", c.op, l, a, len(raw))
			} else {
				trap = fmt.Sprintf("address out of range: global %s lane %d addr %d (G=%d)", c.op, l, a, len(raw))
			}
			return nil, nil, 0, trap
		}
		addrs = append(addrs, int(a))
	}
	for l := 0; l < width; l++ {
		if !w.active[l] {
			continue
		}
		if load {
			w.regs[rigDst*width+l] = raw[addrs[l]]
		} else {
			raw[addrs[l]] = w.regs[rigSrc*width+l]
		}
	}
	switch {
	case n == 0:
	case shared:
		sh, err := mem.NewShared(len(raw), width)
		if err != nil {
			t.Fatal(err)
		}
		cost = sh.ConflictDegree(addrs, w.active)
		if c.broadcast {
			same := true
			first := -1
			for l, a := range addrs {
				if !w.active[l] {
					continue
				}
				if first < 0 {
					first = a
				}
				same = same && a == first
			}
			if same {
				cost = 1
			}
		}
	default:
		cost = mem.Transactions(addrs, w.active, width)
	}
	return append([]kernel.Word(nil), w.flatRegs()...), append([]kernel.Word(nil), raw...), cost, trap
}

// checkAccess runs c through the interpreter and memo replay and compares
// both with the reference; a lane-affine address column runs both written
// out and in symbolic form.
func checkAccess(t *testing.T, c accessCase) {
	t.Helper()
	wantRegs, wantMem, wantCost, wantTrap := referenceAccess(t, c)
	checkAccessAgainst(t, c, wantRegs, wantMem, wantCost, wantTrap)
	if _, ok := laneAffine(c.addrs); ok {
		c.symbolic = true
		c.name += "/symbolic"
		checkAccessAgainst(t, c, wantRegs, wantMem, wantCost, wantTrap)
	}
}

// checkAccessAgainst runs c through the interpreter and memo replay and
// compares both with the reference's registers, memory, cost and trap.
func checkAccessAgainst(t *testing.T, c accessCase, wantRegs, wantMem []kernel.Word, wantCost int, wantTrap string) {
	t.Helper()
	width := len(c.addrs)
	in := &kernel.DInstr{
		Op: c.op, Rd: rigDst, Ra: rigAddr, Rb: rigSrc,
		D: int32(rigDst * width), A: int32(rigAddr * width), B: int32(rigSrc * width),
	}

	compare := func(path string, err error, w *warp, raw []kernel.Word) {
		t.Helper()
		if wantTrap != "" {
			if err == nil || err.Error() != wantTrap {
				t.Fatalf("%s: %s: err = %v, want %q", c.name, path, err, wantTrap)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %s: unexpected trap %v", c.name, path, err)
		}
		regs := w.flatRegs()
		for i := range wantRegs {
			if regs[i] != wantRegs[i] {
				t.Fatalf("%s: %s: reg word %d = %d, want %d", c.name, path, i, regs[i], wantRegs[i])
			}
		}
		for i := range wantMem {
			if raw[i] != wantMem[i] {
				t.Fatalf("%s: %s: memory word %d = %d, want %d", c.name, path, i, raw[i], wantMem[i])
			}
		}
	}

	// The scheduled interpreter.
	ls, w := newAccessRig(t, c)
	var err error
	shared := c.op == kernel.OpLdShared || c.op == kernel.OpStShared
	if shared {
		err = ls.execShared(w, in)
	} else {
		err = ls.execGlobal(w, in)
	}
	raw, _ := memOf(ls, w, c.op)
	compare("exec", err, w, raw)
	if wantTrap == "" {
		got := ls.sites[0].MaxDegree
		if shared && wantCost > 0 {
			lat := int64(ls.d.cfg.SharedLatencyCycles)
			if wantCost > 1 {
				lat *= int64(wantCost)
			}
			if w.readyAt != lat {
				t.Fatalf("%s: shared latency %d, want %d", c.name, w.readyAt, lat)
			}
		}
		if !shared {
			got = int(ls.sites[0].Transactions)
		}
		if got != wantCost {
			t.Fatalf("%s: cost = %d, want %d", c.name, got, wantCost)
		}
		if w.pc != 1 {
			t.Fatalf("%s: pc = %d after the access, want 1", c.name, w.pc)
		}
	}

	// Memo replay's data mover.
	ls, w = newAccessRig(t, c)
	err = ls.replayMem(w, in)
	raw, _ = memOf(ls, w, c.op)
	compare("replay", err, w, raw)
}

// laneAddrs returns width addresses f(l).
func laneAddrs(width int, f func(l int) int64) []int64 {
	out := make([]int64, width)
	for l := range out {
		out[l] = f(l)
	}
	return out
}

func TestAccessFastPathsTable(t *testing.T) {
	ops := []kernel.Op{kernel.OpLdShared, kernel.OpStShared, kernel.OpLdGlobal, kernel.OpStGlobal}
	for _, width := range []int{1, 4, 7, 32} {
		sharedWords, _ := rigSizes(width)
		even := make([]bool, width)
		for l := range even {
			even[l] = l%2 == 0
		}
		mid := width / 2
		cases := []struct {
			name   string
			addrs  []int64
			active []bool
			kind   accessKind // expected class when every lane is active
		}{
			{"aligned-run", laneAddrs(width, func(l int) int64 { return int64(width + l) }), nil, accessContiguous},
			{"unaligned-run", laneAddrs(width, func(l int) int64 { return int64(width + 1 + l) }), nil, accessContiguous},
			{"broadcast", laneAddrs(width, func(int) int64 { return 5 }), nil, accessBroadcast},
			{"stride-2", laneAddrs(width, func(l int) int64 { return int64(2 * l) }), nil, accessScattered},
			{"stride-width", laneAddrs(width, func(l int) int64 { return int64(l%3) * int64(width) }), nil, accessScattered},
			{"duplicates", laneAddrs(width, func(l int) int64 { return int64(l / 2) }), nil, accessScattered},
			{"reversed", laneAddrs(width, func(l int) int64 { return int64(width - 1 - l) }), nil, accessScattered},
			{"masked-run", laneAddrs(width, func(l int) int64 { return int64(width + l) }), even, accessContiguous},
			{"masked-broadcast", laneAddrs(width, func(int) int64 { return 3 }), even, accessBroadcast},
			{"masked-off", laneAddrs(width, func(l int) int64 { return int64(l) }), make([]bool, width), accessContiguous},
			{"run-off-end", laneAddrs(width, func(l int) int64 { return int64(sharedWords - width + 1 + l) }), nil, accessContiguous},
			{"oob-middle", laneAddrs(width, func(l int) int64 {
				if l == mid {
					return int64(sharedWords + 100)
				}
				return int64(l)
			}), nil, accessScattered},
			{"negative-middle", laneAddrs(width, func(l int) int64 {
				if l >= mid {
					return -1
				}
				return int64(l)
			}), nil, accessScattered},
			{"oob-masked-lane", laneAddrs(width, func(l int) int64 {
				if l%2 == 1 {
					return -50
				}
				return int64(l)
			}), even, accessScattered},
		}
		if width > 1 { // one lane is a run of one, not a broadcast
			checkBroadcastLoadUniform(t, width)
		}
		for _, tc := range cases {
			if tc.active == nil {
				// Pin the class the fast path sees; out-of-range columns
				// report their first bad lane instead.
				want := tc.kind
				if width == 1 {
					want = accessContiguous // one lane is a run of one
				}
				kind, bad := execClassify(tc.addrs, 1<<20)
				if bad < 0 && kind != want {
					t.Errorf("width %d %s: class %d, want %d", width, tc.name, kind, want)
				}
			}
			for _, op := range ops {
				for _, bc := range []bool{false, true} {
					checkAccess(t, accessCase{
						name:      fmt.Sprintf("width=%d/%s/%s/broadcast=%v", width, tc.name, op, bc),
						op:        op,
						addrs:     tc.addrs,
						active:    tc.active,
						broadcast: bc,
					})
				}
			}
		}
	}
}

// checkBroadcastLoadUniform runs a fully active broadcast load of a
// width-lane warp through the interpreter and memo replay, into a
// destination apart from the address register and into the address
// register itself: the destination must be left uniform, holding the
// loaded word, without being written out.
func checkBroadcastLoadUniform(t *testing.T, width int) {
	t.Helper()
	const addr = 5
	for _, op := range []kernel.Op{kernel.OpLdShared, kernel.OpLdGlobal} {
		for _, rd := range []kernel.Reg{rigDst, rigAddr} {
			in := &kernel.DInstr{
				Op: op, Rd: rd, Ra: rigAddr, Rb: rigSrc,
				D: int32(int(rd) * width), A: int32(rigAddr * width), B: int32(rigSrc * width),
			}
			c := accessCase{op: op, addrs: laneAddrs(width, func(int) int64 { return addr })}
			for _, path := range []string{"exec", "replay"} {
				name := fmt.Sprintf("width=%d/%s/rd=r%d/%s", width, op, rd, path)
				ls, w := newAccessRig(t, c)
				raw, shared := memOf(ls, w, op)
				want := raw[addr]
				var err error
				switch {
				case path == "replay":
					err = ls.replayMem(w, in)
				case shared:
					err = ls.execShared(w, in)
				default:
					err = ls.execGlobal(w, in)
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				f, ok := w.execForm(rd, int(in.D))
				if !ok || f != (batchAffine{Affine: kernel.Uniform(want)}) {
					t.Fatalf("%s: destination form %+v (symbolic %v), want uniform %d", name, f, ok, want)
				}
				if width > 2 && w.form[rd] != formStale {
					t.Fatalf("%s: the broadcast was written out lane by lane", name)
				}
				for l, v := range w.execColumn(rd, int(in.D)) {
					if v != want {
						t.Fatalf("%s: lane %d = %d, want the fill %d", name, l, v, want)
					}
				}
			}
		}
	}
}

func TestAccessFastPathsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ops := []kernel.Op{kernel.OpLdShared, kernel.OpStShared, kernel.OpLdGlobal, kernel.OpStGlobal}
	widths := []int{1, 2, 4, 7, 8, 32}
	for i := 0; i < 3000; i++ {
		width := widths[rng.Intn(len(widths))]
		op := ops[rng.Intn(len(ops))]
		sharedWords, globalWords := rigSizes(width)
		size := globalWords
		if op == kernel.OpLdShared || op == kernel.OpStShared {
			size = sharedWords
		}
		base := int64(rng.Intn(size+4) - 2)
		var addrs []int64
		switch rng.Intn(4) {
		case 0: // contiguous, sometimes running off either end
			addrs = laneAddrs(width, func(l int) int64 { return base + int64(l) })
		case 1: // broadcast
			addrs = laneAddrs(width, func(int) int64 { return base })
		case 2: // strided
			stride := int64(rng.Intn(width+1) + 1)
			addrs = laneAddrs(width, func(l int) int64 { return (base + stride*int64(l)) % int64(size+1) })
		default: // anything, a few lanes out of range
			addrs = laneAddrs(width, func(int) int64 { return int64(rng.Intn(size+2) - 1) })
		}
		var active []bool
		if rng.Intn(2) == 0 {
			active = make([]bool, width)
			for l := range active {
				active[l] = rng.Intn(3) != 0
			}
		}
		checkAccess(t, accessCase{
			name:      fmt.Sprintf("random #%d width=%d %s", i, width, op),
			op:        op,
			addrs:     addrs,
			active:    active,
			broadcast: rng.Intn(2) == 0,
		})
	}
}

// TestExecDecCoversEveryOpcode steps each opcode once through execDec:
// none may fall through to "undefined opcode", which is kept for bytes
// outside the opcode space. A second step with lane 1 masked off must
// leave that lane's destination register alone.
func TestExecDecCoversEveryOpcode(t *testing.T) {
	const width = 4
	addrs := []int64{0, 1, 2, 3}
	step := func(op kernel.Op, active []bool) (*warp, error) {
		ls, w := newAccessRig(t, accessCase{op: op, addrs: addrs, active: active})
		ls.numBlocks = 1
		ls.dec = &kernel.Decoded{Width: width, Ins: []kernel.DInstr{{
			Op: op, Rd: rigDst, Ra: rigAddr, Rb: rigSrc,
			D: rigDst * width, A: rigAddr * width, B: rigSrc * width,
			Imm: kernel.AtomGlobal, Sem: op.Semantics(),
		}}}
		return w, ls.execDec(w)
	}
	for op := kernel.Op(0); op.Valid(); op++ {
		if _, err := step(op, nil); errors.Is(err, errBadOpcode) {
			t.Errorf("%v: %v", op, err)
		}
		w, _ := step(op, []bool{true, false, true, true})
		if got := w.flatRegs()[rigDst*width+1]; got != -8 {
			t.Errorf("%v wrote masked lane 1: %d", op, got)
		}
	}
	if _, err := step(kernel.Op(255), nil); !errors.Is(err, errBadOpcode) {
		t.Errorf("op(255) = %v, want %v", err, errBadOpcode)
	}
}
