package simgpu

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"atgpu/internal/kernel"
)

// countingProver returns a prover that certifies everything and counts
// the proofs asked of it.
func countingProver(proofs *atomic.Int64) UniformProver {
	return func(*kernel.Program, Config, int) bool { proofs.Add(1); return true }
}

// TestShapeMemoKeyCoverage: a shape is the program's content, the full
// Config, the grid and the failed-SM set, and changing any one of them is
// another shape. The Config fields are found by reflection, so a field
// added later is covered, or fails the test until it is.
func TestShapeMemoKeyCoverage(t *testing.T) {
	const b, blocks = 32, 64
	prog := uniformKernel(t, b, b*blocks)
	cfg := GTX650()
	failed := make([]bool, cfg.NumSMs)
	m := NewShapeMemo(alwaysUniform)
	if _, seen := m.entry(prog, cfg, blocks, failed); seen {
		t.Fatal("an empty memo holds the shape")
	}
	clone := func() *kernel.Program {
		p := *prog
		p.Instrs = slices.Clone(prog.Instrs)
		return &p
	}
	if _, seen := m.entry(clone(), cfg, blocks, slices.Clone(failed)); !seen {
		t.Fatal("a copy of the program on an equal device is another shape")
	}
	miss := func(what string, p *kernel.Program, c Config, blocks int, failed []bool) {
		t.Helper()
		if _, seen := m.entry(p, c, blocks, failed); seen {
			t.Errorf("changing %s leaves the shape", what)
		}
	}

	ct := reflect.TypeOf(cfg)
	for i := range ct.NumField() {
		c := cfg
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() * 2)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "'")
		default:
			t.Fatalf("Config.%s: a %s field this test does not change", ct.Field(i).Name, f.Kind())
		}
		miss("Config."+ct.Field(i).Name, prog, c, blocks, make([]bool, c.NumSMs))
	}

	it := reflect.TypeOf(kernel.Instr{})
	for i := range it.NumField() {
		p := clone()
		f := reflect.ValueOf(&p.Instrs[3]).Elem().Field(i)
		switch f.Kind() {
		case reflect.Uint8:
			f.SetUint(f.Uint() + 1)
		case reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		default:
			t.Fatalf("Instr.%s: a %s field this test does not change", it.Field(i).Name, f.Kind())
		}
		miss("Instr."+it.Field(i).Name, p, cfg, blocks, failed)
	}
	p := clone()
	p.NumRegs++
	miss("NumRegs", p, cfg, blocks, failed)
	p = clone()
	p.SharedWords++
	miss("SharedWords", p, cfg, blocks, failed)
	p = clone()
	p.Name += "'"
	miss("Name", p, cfg, blocks, failed)
	p = clone()
	p.Instrs = append(p.Instrs[:len(p.Instrs)-1], kernel.Instr{Op: kernel.OpNop}, p.Instrs[len(p.Instrs)-1])
	miss("the instruction count", p, cfg, blocks, failed)
	miss("the grid", prog, cfg, blocks+1, failed)
	miss("the failed SMs", prog, cfg, blocks, []bool{false, true})

	// A hash match alone is not the shape: an entry under the shape's
	// head whose instructions differ must not be taken for it.
	other := clone()
	other.Instrs[0].Imm++
	h := shapeHead{cfg, blocks, prog.Name, prog.NumRegs, prog.SharedWords, shapeSum(prog.Instrs, failed)}
	collided := NewShapeMemo(alwaysUniform)
	collided.shapes = map[shapeHead][]*shapeEntry{h: {{instrs: other.Instrs, failed: failed}}}
	if _, seen := collided.entry(prog, cfg, blocks, failed); seen {
		t.Error("an entry with the shape's hash but other instructions was taken for the shape")
	}
}

// TestShapeMemoBounded: the bytes a memo keeps never exceed
// shapeMemoBytes; a memo that would outgrow it starts again empty.
func TestShapeMemoBounded(t *testing.T) {
	const b = 32
	prog := uniformKernel(t, b, b)
	cfg := GTX650()
	failed := make([]bool, cfg.NumSMs)
	m := NewShapeMemo(alwaysUniform)
	emptied := false
	for blocks := 1; !emptied; blocks++ {
		before := m.bytes
		m.entry(prog, cfg, blocks, failed)
		if m.bytes > shapeMemoBytes {
			t.Fatalf("%d shapes: the memo keeps %d bytes, over its bound %d", blocks, m.bytes, shapeMemoBytes)
		}
		emptied = m.bytes < before
	}
	if n := len(m.shapes); n != 1 {
		t.Errorf("after outgrowing its bound the memo holds %d shapes, want the new one alone", n)
	}
}

// TestMemoSmallLaunchNotEligible: a launch of memoMinWaves waves or more
// is proved at its shape's first sight and fingerprinted, and a smaller
// one is neither: its shape is proved when it comes back, and that launch
// is already a shape memo hit. No shape is proved again after that. A
// wave is what the launch holds resident at once (here 2 SMs × 16
// blocks); a launch of exactly three waves skips its last, and a hit adds
// the skip and the elided blocks of the launch that timed its shape.
func TestMemoSmallLaunchNotEligible(t *testing.T) {
	const b = 32
	cfg := GTX650()
	wave := cfg.NumSMs * cfg.MaxBlocksPerSM
	for _, tc := range []struct {
		blocks        int
		proofs, hits  [3]int64
		skips, elided int64
	}{
		{memoMinWaves*wave - 1, [3]int64{0, 1, 0}, [3]int64{0, 1, 2}, 0, 0},
		{memoMinWaves * wave, [3]int64{1, 0, 0}, [3]int64{0, 1, 2}, 1, int64(wave)},
	} {
		n := b * tc.blocks
		prog := uniformKernel(t, b, n)
		dev, err := New(memoConfig(n))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var proofs atomic.Int64
		dev.SetUniformProver(countingProver(&proofs))
		for i := range 3 {
			before := proofs.Load()
			if _, err := dev.Launch(prog, tc.blocks); err != nil {
				t.Fatalf("%d blocks, launch %d: %v", tc.blocks, i, err)
			}
			k := int64(i + 1)
			if got := proofs.Load() - before; got != tc.proofs[i] {
				t.Errorf("%d blocks (wave %d), launch %d: %d proofs, want %d", tc.blocks, wave, i, got, tc.proofs[i])
			}
			if dev.shapes.Hits() != tc.hits[i] || dev.MemoSkips() != k*tc.skips || dev.MemoElided() != k*tc.elided {
				t.Errorf("%d blocks (wave %d), launch %d: %d hits, %d skips, %d elided; want %d, %d, %d",
					tc.blocks, wave, i, dev.shapes.Hits(), dev.MemoSkips(), dev.MemoElided(), tc.hits[i], k*tc.skips, k*tc.elided)
			}
		}
	}
}

// divKernel builds out[n+idx] <- 1000 / in[idx], idx = blk·b + lane: a
// zero input word traps the block that loads it, so where the launch
// traps is up to the data.
func divKernel(t *testing.T, b, n int) *kernel.Program {
	t.Helper()
	kb := kernel.NewBuilder("memo-div", 0)
	j, blk, idx, val, q := kb.Reg("lane"), kb.Reg("block"), kb.Reg("idx"), kb.Reg("val"), kb.Reg("q")
	kb.LaneID(j)
	kb.BlockID(blk)
	kb.Mul(idx, blk, kernel.Imm(int64(b)))
	kb.Add(idx, idx, kernel.R(j))
	kb.LdGlobal(val, idx)
	kb.Const(q, 1000)
	kb.Div(q, q, kernel.R(val))
	kb.Add(idx, idx, kernel.Imm(int64(n)))
	kb.StGlobal(idx, q)
	prog, err := kb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return prog
}

// TestShapeMemoHitTrapTakesMissPath: a hit's replay that traps on its data
// runs the launch again down the miss path, so it fails with the very
// error a launch that never hit reports, whether the trap is in block 0
// (which a memoized miss runs alone) or in a replayed block, on a small
// launch and a memoized one.
func TestShapeMemoHitTrapTakesMissPath(t *testing.T) {
	const b = 32
	wave := GTX650().NumSMs * GTX650().MaxBlocksPerSM
	for _, blocks := range []int{wave, (memoMinWaves + 1) * wave} {
		n := b * blocks
		prog := divKernel(t, b, n)
		launch := func(dev *Device, zeroAt int) error {
			raw := dev.Global().Raw()
			for i := range n {
				raw[i] = int64(i%7 + 1)
			}
			if zeroAt >= 0 {
				raw[zeroAt] = 0
			}
			_, err := dev.Launch(prog, blocks)
			return err
		}
		newDev := func() *Device {
			dev, err := New(memoConfig(n))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			return dev
		}
		for _, zeroBlock := range []int{0, blocks / 2} {
			m := NewShapeMemo(alwaysUniform)
			for range 2 { // a small shape is proved at its second sight
				dev := newDev()
				dev.SetShapeMemo(m)
				if err := launch(dev, -1); err != nil {
					t.Fatalf("%d blocks: %v", blocks, err)
				}
			}
			hits := m.Hits()
			dev := newDev()
			dev.SetShapeMemo(m)
			got := launch(dev, zeroBlock*b+5)
			miss := newDev()
			miss.SetUniformProver(alwaysUniform)
			want := launch(miss, zeroBlock*b+5)
			if !errors.Is(want, ErrKernelTrap) {
				t.Fatalf("%d blocks, zero in block %d: miss err = %v, want a trap", blocks, zeroBlock, want)
			}
			if got == nil || got.Error() != want.Error() {
				t.Errorf("%d blocks, zero in block %d: hit err = %v\nwant the miss's: %v", blocks, zeroBlock, got, want)
			}
			if m.Hits() != hits {
				t.Errorf("%d blocks, zero in block %d: a failed hit counted as a hit", blocks, zeroBlock)
			}
		}
	}
}

// TestShapeMemoPrivateNeverServesShared: SetUniformProver gives a device
// a memo of its own, which neither takes timings from nor gives them to a
// memo other devices share, even for the same shape.
func TestShapeMemoPrivateNeverServesShared(t *testing.T) {
	const b = 32
	blocks := memoMinWaves * GTX650().NumSMs * GTX650().MaxBlocksPerSM
	n := b * blocks
	prog := uniformKernel(t, b, n)
	var sharedProofs, privateProofs atomic.Int64
	shared := NewShapeMemo(countingProver(&sharedProofs))
	launch := func(dev *Device) {
		t.Helper()
		if _, err := dev.Launch(prog, blocks); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		dev, err := New(memoConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		dev.SetShapeMemo(shared)
		launch(dev)
	}
	dev, err := New(memoConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	dev.SetUniformProver(countingProver(&privateProofs))
	launch(dev)
	if shared.Hits() != 1 || dev.shapes.Hits() != 0 || privateProofs.Load() != 1 {
		t.Fatalf("shared memo %d hits, private memo %d hits and %d proofs; want 1, 0 and 1",
			shared.Hits(), dev.shapes.Hits(), privateProofs.Load())
	}
	launch(dev)
	if shared.Hits() != 1 || dev.shapes.Hits() != 1 || privateProofs.Load() != 1 || sharedProofs.Load() != 1 {
		t.Fatalf("shared memo %d hits and %d proofs, private memo %d hits and %d proofs; want 1, 1, 1 and 1",
			shared.Hits(), sharedProofs.Load(), dev.shapes.Hits(), privateProofs.Load())
	}
}

// TestShapeMemoConcurrentLaunches: two goroutines launch one shape at once
// on two devices sharing a memo — both at its first sight, then again
// when it is a hit — and each must leave the memory, KernelStats, time
// and memo counts of a launch that ran alone. Run it under -race.
func TestShapeMemoConcurrentLaunches(t *testing.T) {
	const b = 32
	wave := GTX650().NumSMs * 16 // vecaddSharedKernel holds 16 blocks per SM
	for _, blocks := range []int{wave, (memoMinWaves + 1) * wave} {
		n := b * blocks
		prog := vecaddSharedKernel(t, b, n)
		type outcome struct {
			res           KernelResult
			mem           []kernel.Word
			skips, elided int64
		}
		run := func(m *ShapeMemo) outcome {
			cfg := GTX650()
			cfg.GlobalWords = 3 * n
			dev, err := New(cfg)
			if err != nil {
				t.Error(err)
				return outcome{}
			}
			dev.SetShapeMemo(m)
			raw := dev.Global().Raw()
			for i := range 2 * n {
				raw[i] = int64(i*5 - 11)
			}
			res, err := dev.Launch(prog, blocks)
			if err != nil {
				t.Error(err)
			}
			return outcome{res, slices.Clone(raw), dev.MemoSkips(), dev.MemoElided()}
		}
		full := run(nil)
		alone := run(NewShapeMemo(alwaysUniform))
		m := NewShapeMemo(alwaysUniform)
		for round := range 3 {
			var got [2]outcome
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = run(m)
				}()
			}
			wg.Wait()
			for i, o := range got {
				if o.res.Stats != full.res.Stats || o.res.Time != full.res.Time || !slices.Equal(o.mem, full.mem) {
					t.Errorf("%d blocks, round %d, device %d: %+v / %v, full simulation %+v / %v (memory equal: %v)",
						blocks, round, i, o.res.Stats, o.res.Time, full.res.Stats, full.res.Time, slices.Equal(o.mem, full.mem))
				}
				if o.skips != alone.skips || o.elided != alone.elided {
					t.Errorf("%d blocks, round %d, device %d: %d skips, %d elided; a lone launch %d, %d",
						blocks, round, i, o.skips, o.elided, alone.skips, alone.elided)
				}
			}
		}
		if m.Hits() == 0 {
			t.Errorf("%d blocks: no launch hit", blocks)
		}
	}
}
