package mem

import "fmt"

// Shared is the per-multiprocessor shared memory: M words split into b
// banks "such that b successive words reside in distinct banks" — word w
// lives in bank w mod b. Accesses by the b cores complete in constant time
// when the requested words lie in distinct banks; otherwise a bank conflict
// serialises the requests.
//
// The ATGPU model *assumes* bank conflicts do not occur ("as these are
// difficult to analyse"), but the simulated device still detects and can
// serialise them, both to keep the substrate honest and to support the
// bank-conflict ablation bench.
type Shared struct {
	words []Word
	banks int
}

// NewShared creates a shared memory of size words with banks banks.
func NewShared(size, banks int) (*Shared, error) {
	if banks <= 0 {
		return nil, ErrBadBlockSize
	}
	if size < 0 {
		return nil, ErrBadSize
	}
	return &Shared{words: make([]Word, size), banks: banks}, nil
}

// Size returns M, the capacity in words.
func (s *Shared) Size() int { return len(s.words) }

// Banks returns b, the number of banks.
func (s *Shared) Banks() int { return s.banks }

// Bank returns the bank holding address a.
func (s *Shared) Bank(a int) int { return a % s.banks }

// InRange reports whether address a is valid.
func (s *Shared) InRange(a int) bool { return a >= 0 && a < len(s.words) }

// Load returns the word at address a.
func (s *Shared) Load(a int) (Word, error) {
	if !s.InRange(a) {
		return 0, fmt.Errorf("%w: shared load at %d (M=%d)", ErrOutOfRange, a, len(s.words))
	}
	return s.words[a], nil
}

// Store writes v at address a.
func (s *Shared) Store(a int, v Word) error {
	if !s.InRange(a) {
		return fmt.Errorf("%w: shared store at %d (M=%d)", ErrOutOfRange, a, len(s.words))
	}
	s.words[a] = v
	return nil
}

// Zero clears the whole shared memory, as happens when a fresh block is
// scheduled onto the multiprocessor.
func (s *Shared) Zero() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Raw exposes the backing array for tests.
func (s *Shared) Raw() []Word { return s.words }

// ConflictDegree returns the maximum number of active lanes whose addresses
// map to the same bank — the serialisation factor of the access. A
// conflict-free access has degree <= 1 (degree 0 when no lane is active).
//
// Note the hardware subtlety preserved here: distinct lanes reading the
// *same address* still map to the same bank and are counted as conflicting
// by this simple model (no broadcast optimisation); kernels written for the
// ATGPU model are expected to be conflict-free by construction.
func (s *Shared) ConflictDegree(addrs []int, active []bool) int {
	counts := make([]int, s.banks)
	max := 0
	for lane, a := range addrs {
		if lane < len(active) && !active[lane] {
			continue
		}
		bk := a % s.banks
		counts[bk]++
		if counts[bk] > max {
			max = counts[bk]
		}
	}
	return max
}
