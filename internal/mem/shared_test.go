package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewSharedValidation(t *testing.T) {
	if _, err := NewShared(16, 0); !errors.Is(err, ErrBadBlockSize) {
		t.Errorf("zero banks: %v", err)
	}
	if _, err := NewShared(-1, 4); !errors.Is(err, ErrBadSize) {
		t.Errorf("negative size: %v", err)
	}
	s, err := NewShared(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 16 || s.Banks() != 4 {
		t.Fatalf("geometry wrong: %d/%d", s.Size(), s.Banks())
	}
}

func TestSharedLoadStore(t *testing.T) {
	s, _ := NewShared(8, 4)
	if err := s.Store(5, 11); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load(5)
	if err != nil || v != 11 {
		t.Fatalf("Load(5) = %d, %v", v, err)
	}
	if _, err := s.Load(8); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Load(8): %v", err)
	}
	if err := s.Store(-1, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Store(-1): %v", err)
	}
}

func TestSharedZero(t *testing.T) {
	s, _ := NewShared(8, 4)
	for i := 0; i < 8; i++ {
		if err := s.Store(i, Word(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Zero()
	for i := 0; i < 8; i++ {
		if v, _ := s.Load(i); v != 0 {
			t.Fatalf("after Zero, [%d] = %d", i, v)
		}
	}
}

func TestBankMapping(t *testing.T) {
	// "b successive words reside in distinct banks": word w → bank w mod b.
	s, _ := NewShared(16, 4)
	for a := 0; a < 16; a++ {
		if got, want := s.Bank(a), a%4; got != want {
			t.Errorf("Bank(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestConflictDegree(t *testing.T) {
	s, _ := NewShared(64, 4)
	act := allActive(4)

	// Successive words: conflict free.
	if d := s.ConflictDegree([]int{0, 1, 2, 3}, act); d != 1 {
		t.Errorf("successive words degree = %d, want 1", d)
	}
	// Same bank, different words: full serialisation.
	if d := s.ConflictDegree([]int{0, 4, 8, 12}, act); d != 4 {
		t.Errorf("same-bank degree = %d, want 4", d)
	}
	// Two-way conflict.
	if d := s.ConflictDegree([]int{0, 4, 1, 2}, act); d != 2 {
		t.Errorf("two-way degree = %d, want 2", d)
	}
	// Same word everywhere: no broadcast in the plain model.
	if d := s.ConflictDegree([]int{5, 5, 5, 5}, act); d != 4 {
		t.Errorf("same-word plain degree = %d, want 4", d)
	}
	// Masked lanes do not conflict.
	if d := s.ConflictDegree([]int{0, 4, 8, 12}, []bool{true, false, false, false}); d != 1 {
		t.Errorf("masked degree = %d, want 1", d)
	}
	// No active lanes: degree 0.
	if d := s.ConflictDegree([]int{0, 4, 8, 12}, make([]bool, 4)); d != 0 {
		t.Errorf("inactive degree = %d, want 0", d)
	}
}

// Property: the degree is bounded by the active lane count and zero only
// when no lane is active, and degree of distinct-bank accesses is 1.
func TestConflictDegreeProperties(t *testing.T) {
	s, _ := NewShared(1024, 8)
	f := func(raw [8]uint16, mask uint8) bool {
		addrs := make([]int, 8)
		active := make([]bool, 8)
		n := 0
		for i := range addrs {
			addrs[i] = int(raw[i]) % 1024
			active[i] = mask&(1<<i) != 0
			if active[i] {
				n++
			}
		}
		plain := s.ConflictDegree(addrs, active)
		if plain > n {
			return false
		}
		if (plain == 0) != (n == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	// Lane i accessing bank i is always conflict-free.
	g := func(blockOffsets [8]uint8) bool {
		addrs := make([]int, 8)
		for i := range addrs {
			addrs[i] = int(blockOffsets[i]%16)*8 + i
		}
		return s.ConflictDegree(addrs, allActive(8)) == 1
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
