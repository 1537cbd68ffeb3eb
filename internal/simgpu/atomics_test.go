package simgpu

import (
	"errors"
	"testing"

	"atgpu/internal/kernel"
)

// atomOnePerLane builds a kernel where every lane issues one atomic with
// operand f(lane) at address addr(lane), then stores the returned old value
// at global[blockID*width + lane].
func atomOnePerLane(name string, shared int, body func(kb *kernel.Builder, lane, old kernel.Reg)) *kernel.Program {
	return storePerLane(name, shared, func(kb *kernel.Builder, out kernel.Reg) {
		lane := kb.Reg("l")
		kb.LaneID(lane)
		body(kb, lane, out)
	})
}

// TestAtomAddSharedContended points every lane of one warp at the same
// shared cell: lane l must observe the partial sum of lanes 0..l-1 (lane
// order), the final cell value is the full sum, and the stats must record
// one access fully serialised across the warp.
func TestAtomAddSharedContended(t *testing.T) {
	d := newTiny(t) // width 4
	prog := atomOnePerLane("atomadd-hot", 1, func(kb *kernel.Builder, lane, old kernel.Reg) {
		addr := kb.Reg("a")
		v := kb.Reg("v")
		kb.Const(addr, 0)
		kb.Add(v, lane, kernel.Imm(1)) // operand lane+1 -> sum 1+2+3+4 = 10
		kb.AtomAdd(kernel.AtomShared, old, addr, v)
		// Lane 3 republishes the final cell value to global[width].
		last := kb.Reg("last")
		kb.Seq(last, lane, kernel.Imm(3))
		kb.IfDo(last, func() {
			fin := kb.Reg("fin")
			kb.LdShared(fin, addr)
			dst := kb.Reg("dst")
			kb.Const(dst, 4)
			kb.StGlobal(dst, fin)
		})
	})
	res, err := d.Launch(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readGlobal(d.Global(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Old values are the lane-order prefix sums 0, 1, 3, 6; final cell 10.
	want := []kernel.Word{0, 1, 3, 6, 10}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("word %d = %d, want %d (lane-order serialisation)", i, got[i], w)
		}
	}
	s := res.Stats
	if s.AtomicAccesses != 1 || s.AtomicSerialisations != 3 || s.MaxAtomicDegree != 4 {
		t.Errorf("stats = acc %d ser %d deg %d, want 1/3/4",
			s.AtomicAccesses, s.AtomicSerialisations, s.MaxAtomicDegree)
	}
	if s.MaxWarpAtomicSerial != 3 {
		t.Errorf("MaxWarpAtomicSerial = %d, want 3", s.MaxWarpAtomicSerial)
	}
}

// TestAtomAddSharedConflictFree sends each lane to its own bank: no
// serialisation is charged even though every lane is atomic, and the
// contended variant of the same kernel must take strictly longer.
func TestAtomAddSharedConflictFree(t *testing.T) {
	d := newTiny(t)
	free := atomOnePerLane("atomadd-free", 4, func(kb *kernel.Builder, lane, old kernel.Reg) {
		v := kb.Reg("v")
		kb.Const(v, 1)
		kb.AtomAdd(kernel.AtomShared, old, lane, v) // addr = lane -> distinct banks
	})
	resFree, err := d.Launch(free, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := resFree.Stats
	if s.AtomicAccesses != 1 || s.AtomicSerialisations != 0 || s.MaxAtomicDegree != 1 {
		t.Errorf("conflict-free stats = acc %d ser %d deg %d, want 1/0/1",
			s.AtomicAccesses, s.AtomicSerialisations, s.MaxAtomicDegree)
	}

	hot := atomOnePerLane("atomadd-hot2", 1, func(kb *kernel.Builder, lane, old kernel.Reg) {
		addr := kb.Reg("a")
		v := kb.Reg("v")
		kb.Const(addr, 0)
		kb.Const(v, 1)
		kb.AtomAdd(kernel.AtomShared, old, addr, v)
	})
	resHot, err := d.Launch(hot, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resHot.Stats.Cycles <= resFree.Stats.Cycles {
		t.Errorf("contended atomics took %d cycles, conflict-free %d; want strictly more",
			resHot.Stats.Cycles, resFree.Stats.Cycles)
	}
}

// TestAtomMaxGlobalAcrossBlocks has every thread of several blocks atommax
// its thread id into one global cell; the cell must end at the global max
// regardless of block scheduling order.
func TestAtomMaxGlobalAcrossBlocks(t *testing.T) {
	d := newTiny(t)
	prog := atomOnePerLane("atommax-global", 0, func(kb *kernel.Builder, lane, old kernel.Reg) {
		blk := kb.Reg("b")
		kb.BlockID(blk)
		tid := kb.Reg("t")
		kb.Mul(tid, blk, kernel.Imm(4))
		kb.Add(tid, tid, kernel.R(lane))
		addr := kb.Reg("a")
		kb.Const(addr, 30)
		kb.AtomMax(kernel.AtomGlobal, old, addr, tid)
	})
	res, err := d.Launch(prog, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readGlobal(d.Global(), 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 19 { // 5 blocks * 4 lanes -> max tid 19
		t.Errorf("global max = %d, want 19", got[0])
	}
	s := res.Stats
	if s.AtomicAccesses != 5 {
		t.Errorf("AtomicAccesses = %d, want 5 (one warp-wide atomic per block)", s.AtomicAccesses)
	}
	// All four lanes of each warp hit the same address: degree 4 each.
	if s.AtomicSerialisations != 15 || s.MaxAtomicDegree != 4 {
		t.Errorf("ser %d deg %d, want 15/4", s.AtomicSerialisations, s.MaxAtomicDegree)
	}
}

// TestAtomCASGlobalElectsOneLane is the classic lock-elect: every lane CASes
// 0 -> tid+1 on one cell; exactly lane 0 of the first-served warp wins and
// every other lane reads back a non-zero old value.
func TestAtomCASGlobalElectsOneLane(t *testing.T) {
	d := newTiny(t)
	prog := atomOnePerLane("atomcas-elect", 0, func(kb *kernel.Builder, lane, old kernel.Reg) {
		addr := kb.Reg("a")
		kb.Const(addr, 20)
		v := kb.Reg("v")
		kb.Add(v, lane, kernel.Imm(1))
		// old (Rd) is freshly allocated: compare value 0.
		kb.Const(old, 0)
		kb.AtomCAS(kernel.AtomGlobal, old, addr, v)
	})
	if _, err := d.Launch(prog, 1); err != nil {
		t.Fatal(err)
	}
	got, err := readGlobal(d.Global(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Lane 0 wins (old 0); lanes 1..3 observe the winner's value 1.
	want := []kernel.Word{0, 1, 1, 1}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("lane %d old = %d, want %d", i, got[i], w)
		}
	}
	cell, err := readGlobal(d.Global(), 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cell[0] != 1 {
		t.Errorf("cell = %d, want 1 (only the electing CAS writes)", cell[0])
	}
}

// TestAtomExchInactiveLanesDoNotParticipate masks half the warp off and
// checks that inactive lanes neither count toward the serialisation degree
// nor perform their exchange.
func TestAtomExchInactiveLanesDoNotParticipate(t *testing.T) {
	d := newTiny(t)
	prog := atomOnePerLane("atomexch-mask", 1, func(kb *kernel.Builder, lane, old kernel.Reg) {
		even := kb.Reg("e")
		kb.Mod(even, lane, kernel.Imm(2))
		kb.Seq(even, even, kernel.Imm(0))
		kb.IfDo(even, func() {
			addr := kb.Reg("a")
			v := kb.Reg("v")
			kb.Const(addr, 0)
			kb.Add(v, lane, kernel.Imm(100))
			kb.AtomExch(kernel.AtomShared, old, addr, v)
		})
	})
	res, err := d.Launch(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readGlobal(d.Global(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Lanes 0 and 2 exchange in lane order: lane 0 sees 0, lane 2 sees 100.
	// Odd lanes keep their zero-initialised out register.
	want := []kernel.Word{0, 0, 100, 0}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("lane %d old = %d, want %d", i, got[i], w)
		}
	}
	s := res.Stats
	if s.AtomicAccesses != 1 || s.AtomicSerialisations != 1 || s.MaxAtomicDegree != 2 {
		t.Errorf("stats = acc %d ser %d deg %d, want 1/1/2 (two active lanes)",
			s.AtomicAccesses, s.AtomicSerialisations, s.MaxAtomicDegree)
	}
}

// TestAtomicAddressFaults checks both spaces reject out-of-range addresses.
func TestAtomicAddressFaults(t *testing.T) {
	d := newTiny(t)
	shared := atomOnePerLane("atomadd-oob-shared", 1, func(kb *kernel.Builder, lane, old kernel.Reg) {
		addr := kb.Reg("a")
		kb.Const(addr, 99) // M-alloc is 1 word
		kb.AtomAdd(kernel.AtomShared, old, addr, lane)
	})
	if _, err := d.Launch(shared, 1); !errors.Is(err, errAddrRange) {
		t.Errorf("shared oob: got %v, want errAddrRange", err)
	}
	global := atomOnePerLane("atomadd-oob-global", 0, func(kb *kernel.Builder, lane, old kernel.Reg) {
		addr := kb.Reg("a")
		kb.Const(addr, -1)
		kb.AtomAdd(kernel.AtomGlobal, old, addr, lane)
	})
	if _, err := d.Launch(global, 1); !errors.Is(err, errAddrRange) {
		t.Errorf("global negative: got %v, want errAddrRange", err)
	}
}
