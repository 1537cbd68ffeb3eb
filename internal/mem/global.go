// Package mem implements the two memory spaces of the ATGPU model: global
// memory divided into blocks of b words (accessed by whole-block
// transactions, coalesced when a warp's addresses fall in one block), and
// per-multiprocessor shared memory divided into b banks (serialised on bank
// conflicts).
//
// Both structures separate state (the word arrays) from access-pattern
// analysis (transaction and conflict counting), so the simulator can charge
// latencies and the analyser can audit the model's qᵢ metric from the same
// primitives.
package mem

import (
	"errors"
	"fmt"
)

// Word matches kernel.Word; duplicated here to keep mem dependency-free.
type Word = int64

// Global memory: "The GPU has off-chip global memory split into equal sized
// memory blocks. Global memory is accessible by all cores on the GPU and by
// the CPU." Its size G is a hard constraint the ATGPU model adds over
// SWGPU/AGPU: an algorithm whose footprint exceeds G cannot run.
type Global struct {
	words     []Word
	blockSize int
	// [zeroLo, zeroHi) reads zero but still holds a reused array's old
	// words (see NewGlobalReusing); zeroHi is 0 when nothing is pending.
	zeroLo, zeroHi int
}

// Errors returned by memory operations.
var (
	ErrOutOfRange    = errors.New("mem: address out of range")
	ErrBadBlockSize  = errors.New("mem: block size must be positive")
	ErrBadSize       = errors.New("mem: size must be non-negative")
	ErrSizeExceeded  = errors.New("mem: allocation exceeds capacity")
	ErrMisalignedLen = errors.New("mem: length not a multiple of block size")
)

// NewGlobal creates a global memory of size words split into blocks of
// blockSize words (the model's b).
func NewGlobal(size, blockSize int) (*Global, error) {
	if blockSize <= 0 {
		return nil, ErrBadBlockSize
	}
	if size < 0 {
		return nil, ErrBadSize
	}
	return &Global{words: make([]Word, size), blockSize: blockSize}, nil
}

// NewGlobalReusing is NewGlobal over buf's backing array when it holds
// size words: the memory reads zero exactly as a fresh one does, and the
// Global never sees past its first size words. A buf too small is ignored
// and a fresh array allocated. Raw returns the array in use, for the
// caller to hand back on its next request.
//
// The old words are zeroed on first touch, not here: the whole memory
// starts as one pending-zero span, a WriteSlice that covers either end of
// the span shrinks it, and any other access clears what is left first.
// An inward transfer into a fresh allocation thus writes its words once
// instead of zeroing them and then overwriting them.
func NewGlobalReusing(buf []Word, size, blockSize int) (*Global, error) {
	if size < 0 || cap(buf) < size {
		return NewGlobal(size, blockSize)
	}
	if blockSize <= 0 {
		return nil, ErrBadBlockSize
	}
	return &Global{words: buf[:size:size], blockSize: blockSize, zeroHi: size}, nil
}

// settle clears the pending-zero span. Once nothing is pending it only
// reads, so goroutines sharing a settled memory may call it concurrently.
func (g *Global) settle() {
	if g.zeroHi != 0 {
		clear(g.words[g.zeroLo:g.zeroHi])
		g.zeroLo, g.zeroHi = 0, 0
	}
}

// Size returns G, the capacity in words.
func (g *Global) Size() int { return len(g.words) }

// BlockSize returns the words per memory block.
func (g *Global) BlockSize() int { return g.blockSize }

// NumBlocks returns the number of whole blocks (the tail partial block, if
// any, counts as one more addressable block).
func (g *Global) NumBlocks() int {
	return (len(g.words) + g.blockSize - 1) / g.blockSize
}

// Block returns the block index containing address a.
func (g *Global) Block(a int) int { return a / g.blockSize }

// InRange reports whether address a is valid.
func (g *Global) InRange(a int) bool { return a >= 0 && a < len(g.words) }

// Load returns the word at address a.
func (g *Global) Load(a int) (Word, error) {
	if !g.InRange(a) {
		return 0, fmt.Errorf("%w: global load at %d (G=%d)", ErrOutOfRange, a, len(g.words))
	}
	g.settle()
	return g.words[a], nil
}

// Store writes v at address a.
func (g *Global) Store(a int, v Word) error {
	if !g.InRange(a) {
		return fmt.Errorf("%w: global store at %d (G=%d)", ErrOutOfRange, a, len(g.words))
	}
	g.settle()
	g.words[a] = v
	return nil
}

// CheckWrite validates that a length-word write at offset stays in range,
// without performing it. The transfer engine pre-flights transactions with
// this so range errors surface before any fault/retry machinery engages.
func (g *Global) CheckWrite(offset, length int) error {
	if length < 0 || offset < 0 || offset+length > len(g.words) {
		return fmt.Errorf("%w: write [%d,%d) into G=%d", ErrOutOfRange, offset, offset+length, len(g.words))
	}
	return nil
}

// CheckRead validates that a length-word read at offset stays in range,
// without performing it.
func (g *Global) CheckRead(offset, length int) error {
	if length < 0 || offset < 0 || offset+length > len(g.words) {
		return fmt.Errorf("%w: read [%d,%d) from G=%d", ErrOutOfRange, offset, offset+length, len(g.words))
	}
	return nil
}

// WriteSlice copies src into global memory starting at offset. It is the
// device-side landing of an inward host transfer. A write covering an end
// of the pending-zero span takes those words out of it; one strictly
// inside the span settles it first.
func (g *Global) WriteSlice(offset int, src []Word) error {
	if err := g.CheckWrite(offset, len(src)); err != nil {
		return err
	}
	if end := offset + len(src); g.zeroHi != 0 && len(src) > 0 && offset < g.zeroHi && end > g.zeroLo {
		switch {
		case offset <= g.zeroLo && end >= g.zeroHi:
			g.zeroLo, g.zeroHi = 0, 0
		case offset <= g.zeroLo:
			g.zeroLo = end
		case end >= g.zeroHi:
			g.zeroHi = offset
		default:
			g.settle()
		}
	}
	copy(g.words[offset:], src)
	return nil
}

// ReadInto copies len(dst) words starting at offset into dst. It is the
// device-side source of an outward host transfer.
func (g *Global) ReadInto(offset int, dst []Word) error {
	if err := g.CheckRead(offset, len(dst)); err != nil {
		return err
	}
	g.settle()
	copy(dst, g.words[offset:])
	return nil
}

// Fill sets length words starting at offset to v.
func (g *Global) Fill(offset, length int, v Word) error {
	if length < 0 || offset < 0 || offset+length > len(g.words) {
		return fmt.Errorf("%w: fill [%d,%d) in G=%d", ErrOutOfRange, offset, offset+length, len(g.words))
	}
	g.settle()
	for i := offset; i < offset+length; i++ {
		g.words[i] = v
	}
	return nil
}

// Raw exposes the backing array for zero-copy inspection by tests and the
// functional emulator, settling the pending-zero span first. Callers must
// not resize it.
func (g *Global) Raw() []Word {
	g.settle()
	return g.words
}

// Arena is a bump allocator over a Global memory, standing in for
// cudaMalloc: algorithms allocate named regions and the G constraint is
// enforced at allocation time, which is precisely where the ATGPU model
// rejects algorithms that exceed global capacity.
type Arena struct {
	g    *Global
	next int
}

// NewArena creates an allocator over g starting at offset 0.
func NewArena(g *Global) *Arena { return &Arena{g: g} }

// Alloc reserves size words and returns the base address.
func (a *Arena) Alloc(size int) (int, error) {
	if size < 0 {
		return 0, ErrBadSize
	}
	if a.next+size > a.g.Size() {
		return 0, fmt.Errorf("%w: want %d words, %d free of G=%d",
			ErrSizeExceeded, size, a.g.Size()-a.next, a.g.Size())
	}
	base := a.next
	a.next += size
	return base, nil
}

// AllocAligned reserves size words aligned to a block boundary, the natural
// layout for coalesced kernels.
func (a *Arena) AllocAligned(size int) (int, error) {
	bs := a.g.BlockSize()
	if rem := a.next % bs; rem != 0 {
		pad := bs - rem
		if _, err := a.Alloc(pad); err != nil {
			return 0, err
		}
	}
	return a.Alloc(size)
}

// Used returns the words allocated so far — the model's "global memory
// space used" metric for the current round structure.
func (a *Arena) Used() int { return a.next }

// Free returns the remaining capacity in words.
func (a *Arena) Free() int { return a.g.Size() - a.next }

// Reset releases all allocations (the σ-cost "de-allocating and
// reallocating of data structures" between rounds).
func (a *Arena) Reset() { a.next = 0 }
