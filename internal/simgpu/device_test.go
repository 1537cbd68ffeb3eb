package simgpu

import (
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"atgpu/internal/kernel"
	"atgpu/internal/mem"
)

// readGlobal copies length words of g starting at offset.
func readGlobal(g *mem.Global, offset, length int) ([]mem.Word, error) {
	out := make([]mem.Word, length)
	return out, g.ReadInto(offset, out)
}

// newTiny builds a Tiny device or fails the test.
func newTiny(t *testing.T) *Device {
	t.Helper()
	d, err := New(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// storePerLane builds a kernel computing f into r and storing it at
// global[blockID*width + lane], so tests can read one word per thread.
func storePerLane(name string, shared int, body func(b *kernel.Builder, out kernel.Reg)) *kernel.Program {
	kb := kernel.NewBuilder(name, shared)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	addr := kb.Reg("addr")
	out := kb.Reg("out")
	kb.LaneID(j)
	kb.BlockID(blk)
	wdim := kb.Reg("wdim")
	kb.BlockDim(wdim)
	kb.Mul(addr, blk, kernel.R(wdim))
	kb.Add(addr, addr, kernel.R(j))
	body(kb, out)
	kb.StGlobal(addr, out)
	return kb.MustBuild()
}

// runAndRead launches prog and returns the first n global words.
func runAndRead(t *testing.T, d *Device, prog *kernel.Program, blocks, n int) []kernel.Word {
	t.Helper()
	if _, err := d.Launch(prog, blocks); err != nil {
		t.Fatalf("launch %s: %v", prog.Name, err)
	}
	out, err := readGlobal(d.Global(), 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLaunchGeometryOps(t *testing.T) {
	d := newTiny(t) // width 4
	prog := storePerLane("geom", 0, func(kb *kernel.Builder, out kernel.Reg) {
		// out = blockID*1000 + lane*10 + numBlocks
		b := kb.Reg()
		kb.BlockID(b)
		kb.Mul(out, b, kernel.Imm(1000))
		l := kb.Reg()
		kb.LaneID(l)
		kb.Mul(l, l, kernel.Imm(10))
		kb.Add(out, out, kernel.R(l))
		nb := kb.Reg()
		kb.NumBlocks(nb)
		kb.Add(out, out, kernel.R(nb))
	})
	got := runAndRead(t, d, prog, 3, 12)
	for blk := 0; blk < 3; blk++ {
		for lane := 0; lane < 4; lane++ {
			want := kernel.Word(blk*1000 + lane*10 + 3)
			if got[blk*4+lane] != want {
				t.Fatalf("block %d lane %d = %d, want %d", blk, lane, got[blk*4+lane], want)
			}
		}
	}
}

func TestArithmeticOps(t *testing.T) {
	// Each case computes f(a, b) per lane with a = lane+5, b = 3.
	cases := []struct {
		name string
		emit func(kb *kernel.Builder, out, a, b kernel.Reg)
		want func(a, b kernel.Word) kernel.Word
	}{
		{"add", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Add(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word { return a + b }},
		{"sub", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Sub(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word { return a - b }},
		{"mul", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Mul(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word { return a * b }},
		{"div", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Div(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word { return a / b }},
		{"mod", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Mod(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word { return a % b }},
		{"min", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Min(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word {
				if a < b {
					return a
				}
				return b
			}},
		{"max", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Max(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word {
				if a > b {
					return a
				}
				return b
			}},
		{"and", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.And(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word { return a & b }},
		{"or", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Or(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word { return a | b }},
		{"xor", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Xor(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word { return a ^ b }},
		{"shl", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Shl(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word { return a << uint(b) }},
		{"shr", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Shr(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word { return a >> uint(b) }},
		{"slt", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Slt(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word {
				if a < b {
					return 1
				}
				return 0
			}},
		{"sle", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Sle(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word {
				if a <= b {
					return 1
				}
				return 0
			}},
		{"seq", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Seq(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word {
				if a == b {
					return 1
				}
				return 0
			}},
		{"sne", func(kb *kernel.Builder, out, a, b kernel.Reg) { kb.Sne(out, a, kernel.R(b)) },
			func(a, b kernel.Word) kernel.Word {
				if a != b {
					return 1
				}
				return 0
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newTiny(t)
			prog := storePerLane(c.name, 0, func(kb *kernel.Builder, out kernel.Reg) {
				a := kb.Reg()
				b := kb.Reg()
				kb.LaneID(a)
				kb.Add(a, a, kernel.Imm(5)) // a = lane+5, so -3 < a-b range varies
				kb.Const(b, 3)
				c.emit(kb, out, a, b)
			})
			got := runAndRead(t, d, prog, 1, 4)
			for lane := 0; lane < 4; lane++ {
				a, b := kernel.Word(lane+5), kernel.Word(3)
				if want := c.want(a, b); got[lane] != want {
					t.Fatalf("lane %d: %s(%d,%d) = %d, want %d", lane, c.name, a, b, got[lane], want)
				}
			}
		})
	}
}

func TestImmediateOps(t *testing.T) {
	d := newTiny(t)
	prog := storePerLane("imm", 0, func(kb *kernel.Builder, out kernel.Reg) {
		kb.LaneID(out)
		kb.Add(out, out, kernel.Imm(10))  // lane+10
		kb.Mul(out, out, kernel.Imm(3))   // 3(lane+10)
		kb.Div(out, out, kernel.Imm(2))   // 3(lane+10)/2
		kb.Mod(out, out, kernel.Imm(7))   // mod 7
		kb.Shl(out, out, kernel.Imm(2))   // ×4
		kb.Shr(out, out, kernel.Imm(1))   // ÷2
		kb.And(out, out, kernel.Imm(255)) // mask
	})
	got := runAndRead(t, d, prog, 1, 4)
	for lane := 0; lane < 4; lane++ {
		v := kernel.Word(lane + 10)
		v = v * 3 / 2 % 7 << 2 >> 1 & 255
		if got[lane] != v {
			t.Fatalf("lane %d = %d, want %d", lane, got[lane], v)
		}
	}
}

func TestDivergentIf(t *testing.T) {
	d := newTiny(t)
	// Lanes 0,1 take the if; lanes 2,3 keep the fall-through value.
	prog := storePerLane("div", 0, func(kb *kernel.Builder, out kernel.Reg) {
		kb.Const(out, 100)
		l := kb.Reg()
		kb.LaneID(l)
		cond := kb.Reg()
		kb.Slt(cond, l, kernel.Imm(2))
		kb.IfDo(cond, func() {
			kb.Const(out, 200)
		})
	})
	res, err := d.Launch(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readGlobal(d.Global(), 0, 4)
	want := []kernel.Word{200, 200, 100, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane %d = %d, want %d", i, got[i], want[i])
		}
	}
	if res.Stats.DivergentBranches != 1 {
		t.Errorf("DivergentBranches = %d, want 1", res.Stats.DivergentBranches)
	}
}

func TestIfAllFalseSkips(t *testing.T) {
	d := newTiny(t)
	prog := storePerLane("skip", 0, func(kb *kernel.Builder, out kernel.Reg) {
		kb.Const(out, 1)
		c := kb.Reg()
		kb.Const(c, 0)
		kb.IfDo(c, func() {
			kb.Const(out, 2)
		})
	})
	res, err := d.Launch(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readGlobal(d.Global(), 0, 4)
	for i := range got {
		if got[i] != 1 {
			t.Fatalf("lane %d = %d, want 1 (body skipped)", i, got[i])
		}
	}
	if res.Stats.DivergentBranches != 0 {
		t.Errorf("uniformly false if counted as divergent: %d", res.Stats.DivergentBranches)
	}
}

func TestIfAllTrueNotDivergent(t *testing.T) {
	d := newTiny(t)
	prog := storePerLane("alltrue", 0, func(kb *kernel.Builder, out kernel.Reg) {
		c := kb.Reg()
		kb.Const(c, 1)
		kb.IfDo(c, func() {
			kb.Const(out, 7)
		})
	})
	res, err := d.Launch(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DivergentBranches != 0 {
		t.Errorf("uniformly true if counted as divergent: %d", res.Stats.DivergentBranches)
	}
	got, _ := readGlobal(d.Global(), 0, 4)
	for i := range got {
		if got[i] != 7 {
			t.Fatalf("lane %d = %d, want 7", i, got[i])
		}
	}
}

func TestNestedDivergence(t *testing.T) {
	d := newTiny(t)
	// Outer if: lanes 1..3; inner if: lanes 2..3; innermost write.
	prog := storePerLane("nest", 0, func(kb *kernel.Builder, out kernel.Reg) {
		l := kb.Reg()
		kb.LaneID(l)
		kb.Const(out, 0)
		c1 := kb.Reg()
		kb.Slt(c1, kernel.Reg(l), kernel.Imm(99)) // placeholder to reuse pattern
		kb.Seq(c1, l, kernel.Imm(0))
		kb.Sne(c1, c1, kernel.Imm(1)) // c1 = lane != 0
		kb.IfDo(c1, func() {
			kb.Add(out, out, kernel.Imm(1))
			c2 := kb.Reg()
			kb.Slt(c2, l, kernel.Imm(2))
			kb.Sne(c2, c2, kernel.Imm(1)) // c2 = lane >= 2
			kb.IfDo(c2, func() {
				kb.Add(out, out, kernel.Imm(10))
			})
		})
	})
	got := runAndRead(t, d, prog, 1, 4)
	want := []kernel.Word{0, 1, 11, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestUniformLoop(t *testing.T) {
	d := newTiny(t)
	prog := storePerLane("loop", 0, func(kb *kernel.Builder, out kernel.Reg) {
		kb.Const(out, 0)
		kb.ForDo(kernel.Imm(0), kernel.Imm(5), 1, func(i kernel.Reg) {
			kb.Add(out, out, kernel.R(i))
		})
	})
	got := runAndRead(t, d, prog, 1, 4)
	for lane := 0; lane < 4; lane++ {
		if got[lane] != 10 {
			t.Fatalf("lane %d = %d, want 10 (0+1+2+3+4)", lane, got[lane])
		}
	}
}

func TestDivergentLoopTraps(t *testing.T) {
	d := newTiny(t)
	// Loop bound depends on lane → non-uniform back-edge must trap.
	kb := kernel.NewBuilder("divloop", 0)
	l := kb.Reg()
	kb.LaneID(l)
	i := kb.Reg()
	kb.For(i, kernel.Imm(0), kernel.R(l), 1)
	kb.Nop()
	kb.EndFor()
	prog := kb.MustBuild()
	_, err := d.Launch(prog, 1)
	if !errors.Is(err, ErrDivergentLoop) {
		t.Fatalf("Launch = %v, want ErrDivergentLoop", err)
	}
}

func TestKernelTraps(t *testing.T) {
	cases := []struct {
		name string
		emit func(kb *kernel.Builder)
	}{
		{"div by zero", func(kb *kernel.Builder) {
			a := kb.Reg()
			z := kb.Reg()
			kb.Const(a, 1)
			kb.Const(z, 0)
			kb.Div(a, a, kernel.R(z))
		}},
		{"divi by zero", func(kb *kernel.Builder) {
			a := kb.Reg()
			kb.Const(a, 1)
			kb.Div(a, a, kernel.Imm(0))
		}},
		{"global oob", func(kb *kernel.Builder) {
			a := kb.Reg()
			v := kb.Reg()
			kb.Const(a, 1<<40)
			kb.LdGlobal(v, a)
		}},
		{"global negative", func(kb *kernel.Builder) {
			a := kb.Reg()
			v := kb.Reg()
			kb.Const(a, -1)
			kb.LdGlobal(v, a)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newTiny(t)
			kb := kernel.NewBuilder("trap", 0)
			c.emit(kb)
			if _, err := d.Launch(kb.MustBuild(), 1); !errors.Is(err, ErrKernelTrap) {
				t.Fatalf("Launch = %v, want ErrKernelTrap", err)
			}
		})
	}
}

func TestSharedOutOfRangeTraps(t *testing.T) {
	d := newTiny(t)
	kb := kernel.NewBuilder("shtrap", 8)
	a := kb.Reg()
	v := kb.Reg()
	kb.Const(a, 8) // shared allocation is 8 words: index 8 is out of range
	kb.LdShared(v, a)
	if _, err := d.Launch(kb.MustBuild(), 1); !errors.Is(err, ErrKernelTrap) {
		t.Fatalf("Launch = %v, want ErrKernelTrap", err)
	}
}

func TestSharedExceedsM(t *testing.T) {
	d := newTiny(t) // M = 64
	kb := kernel.NewBuilder("big", 65)
	kb.Nop()
	if _, err := d.Launch(kb.MustBuild(), 1); !errors.Is(err, ErrSharedExceeded) {
		t.Fatalf("Launch = %v, want ErrSharedExceeded", err)
	}
}

func TestLaunchValidation(t *testing.T) {
	d := newTiny(t)
	kb := kernel.NewBuilder("ok", 0)
	kb.Nop()
	prog := kb.MustBuild()
	if _, err := d.Launch(prog, -1); err == nil {
		t.Fatal("negative block count accepted")
	}
	res, err := d.Launch(prog, 0)
	if err != nil {
		t.Fatalf("zero blocks should be a no-op: %v", err)
	}
	if res.Stats.BlocksExecuted != 0 || res.Time != 0 {
		t.Fatalf("zero-block launch did work: %+v", res)
	}
	bad := &kernel.Program{Name: "bad"}
	if _, err := d.Launch(bad, 1); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestSharedMemoryIsPerBlock(t *testing.T) {
	d := newTiny(t)
	// Each block writes blockID into shared[lane] then reads it back;
	// with per-block shared memory no cross-talk is possible.
	prog := storePerLane("pvt", 4, func(kb *kernel.Builder, out kernel.Reg) {
		j := kb.Reg()
		blk := kb.Reg()
		kb.LaneID(j)
		kb.BlockID(blk)
		kb.StShared(j, blk)
		kb.Barrier()
		kb.LdShared(out, j)
	})
	got := runAndRead(t, d, prog, 4, 16)
	for blk := 0; blk < 4; blk++ {
		for lane := 0; lane < 4; lane++ {
			if got[blk*4+lane] != kernel.Word(blk) {
				t.Fatalf("block %d lane %d read %d from shared, want %d",
					blk, lane, got[blk*4+lane], blk)
			}
		}
	}
}

func TestSharedZeroedPerBlock(t *testing.T) {
	d := newTiny(t)
	// More blocks than can be resident, so warp objects are recycled;
	// shared memory must still read as zero for every fresh block.
	prog := storePerLane("zeroed", 4, func(kb *kernel.Builder, out kernel.Reg) {
		j := kb.Reg()
		kb.LaneID(j)
		kb.LdShared(out, j) // must be 0
		one := kb.Reg()
		kb.Const(one, 99)
		kb.StShared(j, one) // dirty it for the next occupant, if any
	})
	got := runAndRead(t, d, prog, 16, 64)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("thread %d saw dirty shared memory: %d", i, v)
		}
	}
}

// TestRetiredWarpsStartClean: a launch reuses the warps an earlier launch
// of the same shape retired to the idle pool, and they start clean — a
// register the kernel never writes reads zero on every lane, and so does
// shared memory — however the earlier kernel left them.
func TestRetiredWarpsStartClean(t *testing.T) {
	exactIdlePools(t)
	d := newTiny(t)
	dirty := storePerLane("dirty", 4, func(kb *kernel.Builder, out kernel.Reg) {
		j, sq := kb.Reg(), kb.Reg()
		kb.LaneID(j)
		kb.Mul(sq, j, kernel.R(j)) // no symbolic form: written lane by lane
		kb.Add(out, sq, kernel.Imm(3))
		kb.StShared(j, out)
	})
	clean := storePerLane("clean", 4, func(kb *kernel.Builder, out kernel.Reg) {
		j, unset := kb.Reg(), kb.Reg() // unset is dirty's sq register
		kb.LaneID(j)
		kb.LdShared(out, j)
		kb.Add(out, out, kernel.R(unset))
	})
	shape := warpShape{d.cfg.WarpWidth, 1, dirty.NumRegs, dirty.SharedWords}
	if c := (warpShape{d.cfg.WarpWidth, 1, clean.NumRegs, clean.SharedWords}); c != shape {
		t.Fatalf("clean's warps are %+v, dirty's %+v", c, shape)
	}
	takeWarps(nil, shape, math.MaxInt) // drop what earlier tests left
	runAndRead(t, d, dirty, 16, 64)
	retired := takeWarps(nil, shape, math.MaxInt)
	if len(retired) == 0 && !raceEnabled {
		t.Fatal("no retired warps pooled after the first launch")
	}
	putWarps(shape, retired)
	for i, v := range runAndRead(t, d, clean, 16, 64) {
		if v != 0 {
			t.Fatalf("thread %d saw a dirty register or shared word: %d", i, v)
		}
	}
	if raceEnabled {
		return
	}
	pooled := map[*warp]bool{}
	for _, w := range retired {
		pooled[w] = true
	}
	reused := takeWarps(nil, shape, math.MaxInt)
	if len(reused) != len(pooled) {
		t.Fatalf("second launch left %d idle warps; want the first launch's %d", len(reused), len(pooled))
	}
	for _, w := range reused {
		if !pooled[w] {
			t.Fatal("second launch allocated a warp instead of reusing a retired one")
		}
	}
}

// exactIdlePools makes the idle warp pools hand back exactly what was put
// into them for the rest of test t: with one P no warp waits in another
// P's slot, and with the collector off none is dropped.
func exactIdlePools(t *testing.T) {
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

func TestDeviceReset(t *testing.T) {
	d := newTiny(t)
	if _, err := d.Arena().Alloc(10); err != nil {
		t.Fatal(err)
	}
	if err := d.Global().Store(5, 42); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	if d.Arena().Used() != 0 {
		t.Error("Reset should clear the arena")
	}
	if v, _ := d.Global().Load(5); v != 0 {
		t.Error("Reset should clear global memory")
	}
}

// TestDeviceResetReusedMemory: a device over a garbage-filled array reads
// zero after Reset, whether the memory's pending zeroes were settled, cut
// short by an inward transfer, or never touched.
func TestDeviceResetReusedMemory(t *testing.T) {
	for _, touch := range []func(g *mem.Global) error{
		func(*mem.Global) error { return nil },
		func(g *mem.Global) error { return g.WriteSlice(0, []mem.Word{1, 2, 3}) },
		func(g *mem.Global) error { _, err := g.Load(7); return err },
	} {
		cfg := Tiny()
		buf := make([]mem.Word, cfg.GlobalWords+8)
		for i := range buf {
			buf[i] = -1
		}
		d, err := NewReusing(cfg, buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := touch(d.Global()); err != nil {
			t.Fatal(err)
		}
		d.Reset()
		for i, v := range d.Global().Raw() {
			if v != 0 {
				t.Fatalf("word %d = %d after Reset", i, v)
			}
		}
	}
}
