package experiments

import (
	"math/rand"
	"sync"

	"atgpu/internal/mem"
	"atgpu/internal/simgpu"
)

// pointScratch is the big buffers one sweep point works in: the backing
// array of its device's global memory, and its input vectors with the
// stream they are drawn from. A point takes a scratch buffer from its
// Runner's pool and returns it when done, so the next point reuses the
// arrays instead of allocating fresh ones. An array grows to the largest
// request it has seen and is replaced, never kept alongside, when it
// grows, which bounds a Runner's retained memory by its concurrently
// running points.
type pointScratch struct {
	global []mem.Word
	// in holds the input vectors; inputWords is the length an input
	// buffer grows to at least when it grows: the largest input of the
	// sweep holding the scratch, 0 outside one.
	in         [2][]mem.Word
	inputWords int
	// rng is the point's input stream, seeded by the sweep per point.
	rng inputStream
	// vec is a work vector for result checks (see vector).
	vec []mem.Word
	// out receives a pipelined schedule's output (see result).
	out []mem.Word
}

// device builds a device for cfg whose global memory reuses the set's
// array (see simgpu.NewReusing), so the memory reads zero.
func (s *pointScratch) device(cfg simgpu.Config) (*simgpu.Device, error) {
	s.growGlobal(cfg.GlobalWords)
	return simgpu.NewReusing(cfg, s.global)
}

// growGlobal replaces the global array by a words-long one if it is
// shorter.
func (s *pointScratch) growGlobal(words int) {
	if words > cap(s.global) {
		s.global = make([]mem.Word, words)
	}
}

// input returns input buffer i cut to n words, for a draw to overwrite.
func (s *pointScratch) input(i, n int) []mem.Word {
	if n > cap(s.in[i]) {
		s.in[i] = make([]mem.Word, max(n, s.inputWords))
	}
	return s.in[i][:n]
}

// vector returns the work vector cut to n words, for a check to
// overwrite.
func (s *pointScratch) vector(n int) []mem.Word {
	if n > cap(s.vec) {
		s.vec = make([]mem.Word, n)
	}
	return s.vec[:n]
}

// result returns the output buffer cut to n words, for a run to
// overwrite. It grows as the input buffers do: a chunked output is at
// most as long as the sweep's largest input.
func (s *pointScratch) result(n int) []mem.Word {
	if n > cap(s.out) {
		s.out = make([]mem.Word, max(n, s.inputWords))
	}
	return s.out[:n]
}

// words draws input i: n words uniform in [-1000, 1000], rand.Intn(2001)
// - 1000 each.
func (s *pointScratch) words(i, n int) []mem.Word {
	w := s.input(i, n)
	s.rng.uniform2001(w, -1000)
	return w
}

// nonNeg draws input i: n words uniform in [0, 2000], rand.Intn(2001)
// each — the histogram input domain (bins index by value mod Bins, so
// values must be non-negative).
func (s *pointScratch) nonNeg(i, n int) []mem.Word {
	w := s.input(i, n)
	s.rng.uniform2001(w, 0)
	return w
}

// bits draws input i: n words from {0, 1}, rand.Intn(2) each — the
// paper's reduction inputs ("randomly generated vectors of 0/1 values").
func (s *pointScratch) bits(i, n int) []mem.Word {
	w := s.input(i, n)
	s.rng.bits(w)
	return w
}

// math/rand's generator is the additive lagged-Fibonacci recurrence
// x[k] = x[k-rngLen] + x[k-rngTap] (mod 2⁶⁴) over its outputs, once its
// seeded register has produced the first rngLen of them.
const (
	rngLen = 607
	rngTap = 273
)

// inputStream reproduces rand.New(rand.NewSource(seed))'s Intn values —
// Go 1 compatibility freezes them — without a Source interface call per
// word. It takes the source's first rngLen outputs, then runs the
// recurrence a whole register at a time. Intn(n) for n < 2³¹ is Int31n,
// which masks a power-of-two n and otherwise rejects draws above the
// largest multiple of n before taking v % n.
type inputStream struct {
	// x holds the latest rngLen outputs, the next one to hand out at pos.
	x   [rngLen]uint64
	pos int
}

// seed restarts the stream as rand.NewSource(seed).
func (s *inputStream) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.x {
		s.x[i] = src.Uint64()
	}
	s.pos = 0
}

// refill replaces x by the next rngLen outputs. Output k+rngLen adds
// output k+rngLen-rngTap, which is still in x for the first rngTap
// slots and was just written for the rest.
func (s *inputStream) refill() {
	x := &s.x
	for i := 0; i < rngTap; i++ {
		x[i] += x[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		x[i] += x[i-rngTap]
	}
	s.pos = 0
}

// next returns the register's outputs not yet handed out, refilling it
// when all are; a draw advances pos past those it takes.
func (s *inputStream) next() []uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	return s.x[s.pos:]
}

// int31 is rand.Int31 of output u: its bits 62..32.
func int31(u uint64) uint32 { return uint32(u << 1 >> 33) }

// span2001Max is Int31n's rejection bound for n = 2001.
const span2001Max = 1<<31 - 1 - (1<<31)%2001

// mod2001 is v % 2001 for v < 2³¹, by one multiply-high: m = ⌈2⁴²/2001⌉
// = 2197924294 is 2⁴²/2001 plus e/2001 with e = 1190, so v·m/2⁴² is
// v/2001 plus less than v·e/2⁴²/2001 < 1/2001, which never reaches the
// next integer. The product fits 63 bits.
func mod2001(v uint32) uint32 { return v - uint32(uint64(v)*2197924294>>42)*2001 }

// uniform2001 fills dst with rand.Intn(2001) + off per word. Each pass
// takes no more outputs than words are left and maps them to words one
// for one, noting whether any was rejected; only then, about one pass in
// 8000, does it map the pass again, skipping the rejected outputs, which
// leaves a word for the next pass.
func (s *inputStream) uniform2001(dst []mem.Word, off mem.Word) {
	for len(dst) > 0 {
		x := s.next()
		x = x[:min(len(x), len(dst))]
		d := dst[:len(x)]
		// over's sign bit is set once some output exceeds span2001Max.
		var over int64
		for k, u := range x {
			v := int31(u)
			over |= span2001Max - int64(v)
			d[k] = mem.Word(mod2001(v)) + off
		}
		j := len(x)
		if over < 0 {
			j = 0
			for _, u := range x {
				if v := int31(u); v <= span2001Max {
					dst[j] = mem.Word(mod2001(v)) + off
					j++
				}
			}
		}
		s.pos += len(x)
		dst = dst[j:]
	}
}

// bits fills dst with rand.Intn(2) per word.
func (s *inputStream) bits(dst []mem.Word) {
	for len(dst) > 0 {
		x := s.next()
		x = x[:min(len(x), len(dst))]
		for k, u := range x {
			dst[k] = mem.Word(int31(u) & 1)
		}
		s.pos += len(x)
		dst = dst[len(x):]
	}
}

// scratchPool is a Runner's stack of idle point scratch buffers. Each
// running point holds one, so at most Workers exist per sweep, and
// concurrent sweeps on one Runner each take their own. They live as long
// as the Runner: dropping them when each sweep ends turns them into
// garbage just as the next sweep allocates its own, which raises peak
// memory across repeated sweeps.
type scratchPool struct {
	mu   sync.Mutex
	free []*pointScratch
}

// get takes an idle buffer, or a new one when none is idle, holding at
// least globalWords of device memory and growing its inputs to at least
// inputWords: the sweep's largest device and input, so the first sweep on
// a Runner does not regrow the arrays point by point along an ascending
// ladder.
func (p *scratchPool) get(globalWords, inputWords int) *pointScratch {
	p.mu.Lock()
	s := new(pointScratch)
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	s.growGlobal(globalWords)
	s.inputWords = inputWords
	return s
}

// put returns a buffer taken with get.
func (p *scratchPool) put(s *pointScratch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, s)
}
