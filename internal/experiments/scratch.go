package experiments

import (
	"sync"

	"atgpu/internal/mem"
	"atgpu/internal/simgpu"
)

// pointScratch is the big buffer one sweep point works in: the backing
// array of its device's global memory. A point takes a scratch buffer
// from its Runner's pool and returns it when done, so the next point
// reuses the array instead of allocating a fresh one. The array grows to
// the largest request it has seen and is replaced, never kept alongside,
// when it grows, which bounds a Runner's retained memory by its
// concurrently running points.
type pointScratch struct {
	global []mem.Word
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
// least globalWords: the sweep's largest device, so the first sweep on a
// Runner does not regrow the array point by point along an ascending
// ladder.
func (p *scratchPool) get(globalWords int) *pointScratch {
	p.mu.Lock()
	s := new(pointScratch)
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	s.growGlobal(globalWords)
	return s
}

// put returns a buffer taken with get.
func (p *scratchPool) put(s *pointScratch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, s)
}
