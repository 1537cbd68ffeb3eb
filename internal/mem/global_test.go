package mem

import (
	"errors"
	"sync"
	"testing"
)

func TestNewGlobalValidation(t *testing.T) {
	if _, err := NewGlobal(16, 0); !errors.Is(err, ErrBadBlockSize) {
		t.Errorf("zero block size: %v", err)
	}
	if _, err := NewGlobal(-1, 4); !errors.Is(err, ErrBadSize) {
		t.Errorf("negative size: %v", err)
	}
	g, err := NewGlobal(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 16 || g.BlockSize() != 4 || g.NumBlocks() != 4 {
		t.Fatalf("geometry wrong: size=%d bs=%d blocks=%d", g.Size(), g.BlockSize(), g.NumBlocks())
	}
}

func TestGlobalNumBlocksPartialTail(t *testing.T) {
	g, err := NewGlobal(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3 (two full + one partial)", g.NumBlocks())
	}
}

func TestGlobalLoadStore(t *testing.T) {
	g, _ := NewGlobal(8, 4)
	if err := g.Store(3, 42); err != nil {
		t.Fatal(err)
	}
	v, err := g.Load(3)
	if err != nil || v != 42 {
		t.Fatalf("Load(3) = %d, %v", v, err)
	}
	if _, err := g.Load(8); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Load(8): %v", err)
	}
	if _, err := g.Load(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Load(-1): %v", err)
	}
	if err := g.Store(8, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Store(8): %v", err)
	}
}

func TestGlobalBlockMapping(t *testing.T) {
	g, _ := NewGlobal(16, 4)
	for a := 0; a < 16; a++ {
		if got, want := g.Block(a), a/4; got != want {
			t.Errorf("Block(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestGlobalSlices(t *testing.T) {
	g, _ := NewGlobal(8, 4)
	if err := g.WriteSlice(2, []Word{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := make([]Word, 3)
	if err := g.ReadInto(2, got); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Word{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("ReadInto[%d] = %d, want %d", i, got[i], want)
		}
	}
	if err := g.WriteSlice(6, []Word{1, 2, 3}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow write: %v", err)
	}
	if err := g.ReadInto(6, make([]Word, 3)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow read: %v", err)
	}
	if err := g.ReadInto(-1, got); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative offset read: %v", err)
	}
	// ReadInto must copy, not alias.
	got[0] = 99
	v, _ := g.Load(2)
	if v != 1 {
		t.Error("ReadInto aliases device memory")
	}
}

func TestGlobalFill(t *testing.T) {
	g, _ := NewGlobal(8, 4)
	if err := g.Fill(2, 4, 7); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		v, _ := g.Load(a)
		want := Word(0)
		if a >= 2 && a < 6 {
			want = 7
		}
		if v != want {
			t.Fatalf("after Fill, [%d] = %d, want %d", a, v, want)
		}
	}
	if err := g.Fill(6, 4, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow fill: %v", err)
	}
}

func TestArena(t *testing.T) {
	g, _ := NewGlobal(100, 4)
	a := NewArena(g)
	p1, err := a.Alloc(10)
	if err != nil || p1 != 0 {
		t.Fatalf("first alloc = %d, %v", p1, err)
	}
	p2, err := a.Alloc(5)
	if err != nil || p2 != 10 {
		t.Fatalf("second alloc = %d, %v", p2, err)
	}
	if a.Used() != 15 || a.Free() != 85 {
		t.Fatalf("Used=%d Free=%d", a.Used(), a.Free())
	}
	if _, err := a.Alloc(86); !errors.Is(err, ErrSizeExceeded) {
		t.Errorf("over-alloc: %v", err)
	}
	if _, err := a.Alloc(-1); !errors.Is(err, ErrBadSize) {
		t.Errorf("negative alloc: %v", err)
	}
	a.Reset()
	if a.Used() != 0 {
		t.Fatal("Reset should clear usage")
	}
}

func TestArenaAligned(t *testing.T) {
	g, _ := NewGlobal(100, 4)
	a := NewArena(g)
	if _, err := a.Alloc(3); err != nil {
		t.Fatal(err)
	}
	p, err := a.AllocAligned(8)
	if err != nil {
		t.Fatal(err)
	}
	if p%4 != 0 {
		t.Fatalf("aligned alloc at %d, want multiple of 4", p)
	}
	if p != 4 {
		t.Fatalf("aligned alloc at %d, want 4 (padding over 3)", p)
	}
	// Already aligned: no padding.
	p2, err := a.AllocAligned(4)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != 12 {
		t.Fatalf("second aligned alloc at %d, want 12", p2)
	}
}

func TestArenaExactFit(t *testing.T) {
	g, _ := NewGlobal(16, 4)
	a := NewArena(g)
	if _, err := a.Alloc(16); err != nil {
		t.Fatalf("exact-fit alloc failed: %v", err)
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrSizeExceeded) {
		t.Errorf("alloc past capacity: %v", err)
	}
}

func TestNewGlobalReusing(t *testing.T) {
	buf := []Word{7, 7, 7, 7, 7, 7, 7, 7}
	g, err := NewGlobalReusing(buf, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	raw := g.Raw()
	if &raw[0] != &buf[0] {
		t.Fatal("a large enough buffer was not reused")
	}
	if g.Size() != 6 || cap(raw) != 6 {
		t.Fatalf("size %d cap %d, want the memory capped at 6 words", g.Size(), cap(raw))
	}
	for i, v := range raw {
		if v != 0 {
			t.Fatalf("reused word %d = %d, want 0", i, v)
		}
	}
	if buf[6] != 7 || buf[7] != 7 {
		t.Fatal("words past the memory's size were touched")
	}
	if err := g.Store(6, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("store past the size: %v", err)
	}

	grown, err := NewGlobalReusing(buf, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Size() != 9 || &grown.Raw()[0] == &buf[0] {
		t.Fatal("a too-small buffer must be replaced by a fresh array")
	}
	if _, err := NewGlobalReusing(buf, 4, 0); !errors.Is(err, ErrBadBlockSize) {
		t.Fatalf("bad block size: %v", err)
	}
	if _, err := NewGlobalReusing(buf, -1, 4); !errors.Is(err, ErrBadSize) {
		t.Fatalf("negative size: %v", err)
	}
}

// garbageGlobal is a 12-word memory over a reused 16-word array full of
// garbage, as a sweep's second point gets it.
func garbageGlobal(t *testing.T) (*Global, []Word) {
	t.Helper()
	buf := make([]Word, 16)
	for i := range buf {
		buf[i] = Word(100 + i)
	}
	g, err := NewGlobalReusing(buf, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g, buf
}

// wantWords checks every word of g through Load: want where given,
// zero elsewhere.
func wantWords(t *testing.T, name string, g *Global, want map[int]Word) {
	t.Helper()
	for a := 0; a < g.Size(); a++ {
		if v, _ := g.Load(a); v != want[a] {
			t.Fatalf("%s: word %d = %d, want %d", name, a, v, want[a])
		}
	}
}

// TestReusedGlobalZeroOnFirstTouch: a memory over a garbage-filled array
// reads zero through every accessor, although nothing is cleared until
// first touch; transfers covering an end of the pending span shrink it
// instead of clearing, and words past the memory are never touched.
func TestReusedGlobalZeroOnFirstTouch(t *testing.T) {
	zeros := make([]Word, 12)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, g *Global) map[int]Word
	}{
		{"Load", func(t *testing.T, g *Global) map[int]Word { return nil }},
		{"Raw", func(t *testing.T, g *Global) map[int]Word {
			for i, v := range g.Raw() {
				if v != 0 {
					t.Fatalf("Raw word %d = %d", i, v)
				}
			}
			return nil
		}},
		{"ReadInto", func(t *testing.T, g *Global) map[int]Word {
			got := make([]Word, 5)
			if err := g.ReadInto(7, got); err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if v != 0 {
					t.Fatalf("ReadInto word %d = %d", 7+i, v)
				}
			}
			return nil
		}},
		{"ChecksumRange", func(t *testing.T, g *Global) map[int]Word {
			if sum, err := g.ChecksumRange(0, 12); err != nil || sum != Checksum(zeros) {
				t.Fatalf("ChecksumRange = %#x, %v; want the zero checksum %#x", sum, err, Checksum(zeros))
			}
			return nil
		}},
		{"Store", func(t *testing.T, g *Global) map[int]Word {
			if err := g.Store(5, 9); err != nil {
				t.Fatal(err)
			}
			return map[int]Word{5: 9}
		}},
		{"Fill", func(t *testing.T, g *Global) map[int]Word {
			if err := g.Fill(4, 3, 7); err != nil {
				t.Fatal(err)
			}
			return map[int]Word{4: 7, 5: 7, 6: 7}
		}},
		{"WriteSlice inside", func(t *testing.T, g *Global) map[int]Word {
			if err := g.WriteSlice(3, []Word{1, 2}); err != nil {
				t.Fatal(err)
			}
			if g.zeroHi != 0 {
				t.Fatalf("a write inside the span left [%d,%d) pending", g.zeroLo, g.zeroHi)
			}
			return map[int]Word{3: 1, 4: 2}
		}},
		{"WriteSlice ends", func(t *testing.T, g *Global) map[int]Word {
			if err := g.WriteSlice(0, []Word{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
			if err := g.WriteSlice(10, []Word{5, 6}); err != nil {
				t.Fatal(err)
			}
			if g.zeroLo != 4 || g.zeroHi != 10 {
				t.Fatalf("pending span [%d,%d), want [4,10)", g.zeroLo, g.zeroHi)
			}
			return map[int]Word{0: 1, 1: 2, 2: 3, 3: 4, 10: 5, 11: 6}
		}},
		{"WriteSlice whole", func(t *testing.T, g *Global) map[int]Word {
			if err := g.WriteSlice(4, make([]Word, 8)); err != nil {
				t.Fatal(err)
			}
			if err := g.WriteSlice(0, []Word{1, 2, 3, 4, 5}); err != nil {
				t.Fatal(err)
			}
			if g.zeroHi != 0 {
				t.Fatalf("covering writes left [%d,%d) pending", g.zeroLo, g.zeroHi)
			}
			return map[int]Word{0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, buf := garbageGlobal(t)
			if buf[0] != 100 || buf[11] != 111 {
				t.Fatal("NewGlobalReusing cleared eagerly")
			}
			wantWords(t, tc.name, g, tc.run(t, g))
			if buf[12] != 112 || buf[15] != 115 {
				t.Fatal("words past the memory's size were touched")
			}
		})
	}
}

// TestReusedGlobalConcurrentRaw: once settled, Raw only reads the
// pending span, so goroutines sharing the memory may call it at once
// (run under -race).
func TestReusedGlobalConcurrentRaw(t *testing.T) {
	g, _ := garbageGlobal(t)
	g.Raw()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw := g.Raw()
			raw[i] = Word(i + 1)
		}(i)
	}
	wg.Wait()
	wantWords(t, "concurrent Raw", g, map[int]Word{0: 1, 1: 2, 2: 3, 3: 4})
}
