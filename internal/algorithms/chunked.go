package algorithms

import (
	"fmt"

	"atgpu/internal/core"
	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
	"atgpu/internal/timeline"
)

// Chunked transfer: a workload re-expressed as a pipeline of chunks over
// the host's stream API. The input is split along one axis; chunk c is
// issued on stream c mod Streams, so while one chunk's kernels run, the
// next chunk's inward transfer proceeds on the H2D link and the previous
// chunk's result drains on the D2H link. Buffer sets are per stream:
// stream serialization is exactly the double-buffering constraint (a
// chunk reuses its stream's buffers only after the stream's previous
// chunk fully drained).
//
// The same plan covers the paper's future-work direction (§V): "analyse
// different approaches where the data does not fit on the global memory,
// thereby requiring some sort of partitioning, and it is hoped that
// differences could be illustrated in approaches with differing host
// device communication requirements." An input larger than usable global
// memory is a split whose chunk fits: on one stream it runs serially
// (transfer, reduce, transfer, …), on two the transfers hide behind the
// kernels. Both schedules move identical words and launch identical
// kernels, so their difference isolates the communication schedule.
//
// Every schedule synchronises once, at the end, so the one-stream and
// multi-stream times differ by the overlap alone — mirroring
// core.GPUCostPipelined, whose Sequential/Pipelined pair charges a single
// σ on both sides.

// Split declares how a workload divides into chunks. The Chunked plan
// derives the buffers, the schedule, the model and the footprint from it.
type Split struct {
	// Name names the chunk streams "<Name>-<s>" and the analysis
	// "<Name>-pipelined".
	Name string
	// Width is the warp width b the split is declared for.
	Width int
	// Len is the length of the split axis: elements, or tile rows.
	Len int
	// Unit is the words one axis unit holds in each input span and, for
	// a split without Combine, in the output span.
	Unit int
	// Inputs is the number of host input vectors split into per-chunk
	// spans; each has a device buffer per stream.
	Inputs int
	// Resident is the words of one more input that moves whole, on the
	// default stream, before the first chunk; every chunk stream waits
	// on it. 0 for none.
	Resident int
	// Scratch is the per-stream scratch words beside the input buffers,
	// for a chunk of the given axis length.
	Scratch func(units int) int
	// Chunk declares what a chunk of units axis units launches over its
	// stream's buffers bufs — each round with its model account — and the
	// device offset its result is read out from.
	Chunk func(units int, bufs Bufs) (rounds []ChunkRound, result int)
	// Combine, when set, folds the chunks' one-word results, in chunk
	// order, into the plan's result on the host; without it each chunk
	// reads its Unit words per axis unit out of its stream's output
	// buffer into the matching span of the output.
	Combine func(parts []Word) Word
}

// Bufs is the device buffers one chunk stream works in.
type Bufs struct {
	// Resident is the resident input's offset.
	Resident int
	// In holds the stream's input buffers, one per input span.
	In []int
	// Out is the stream's output buffer (splits without Combine).
	Out int
	// Scratch is the stream's scratch buffer.
	Scratch int
}

// ChunkRound is one kernel round of a chunk: its model account and the
// kernel it launches on Round.Blocks blocks.
type ChunkRound struct {
	// Round carries the round's time, I/O, shared memory and blocks; the
	// plan fills in the footprint and the transfers.
	Round core.Round
	// Kernel builds the round's program.
	Kernel func() (*kernel.Program, error)
}

// Chunked is a split run in Chunks chunks on Streams streams (1 gives
// the sequential-chunked baseline on a single stream).
type Chunked struct {
	Split
	Chunks  int
	Streams int
}

// shape normalises the plan and returns the chunk length, chunk count and
// stream count actually used.
func (c Chunked) shape() (chunkLen, numChunks, numStreams int, err error) {
	switch {
	case c.Len <= 0:
		return 0, 0, 0, fmt.Errorf("%w: n=%d", ErrBadSize, c.Len)
	case c.Chunks <= 0:
		return 0, 0, 0, fmt.Errorf("%w: chunks=%d", ErrBadSize, c.Chunks)
	case c.Streams <= 0:
		return 0, 0, 0, fmt.Errorf("%w: streams=%d", ErrBadSize, c.Streams)
	case c.Width <= 0:
		return 0, 0, 0, fmt.Errorf("%w: b=%d", ErrBadSize, c.Width)
	}
	chunkLen = ceilDiv(c.Len, min(c.Chunks, c.Len))
	numChunks = ceilDiv(c.Len, chunkLen)
	return chunkLen, numChunks, min(c.Streams, numChunks), nil
}

// span is chunk i's axis range [lo, hi) for chunks of chunkLen.
func (c Chunked) span(i, chunkLen int) (lo, hi int) {
	lo = i * chunkLen
	return lo, min(lo+chunkLen, c.Len)
}

// OutWords is the length of the output Run fills: one word per chunk
// actually used with a Combine (0 for a bad shape), the whole split axis
// otherwise.
func (c Chunked) OutWords() int {
	if c.Combine == nil {
		return c.Len * c.Unit
	}
	_, numChunks, _, _ := c.shape()
	return numChunks
}

// alignWords rounds size up to a multiple of the transaction width b —
// the padding AllocAligned inserts before each buffer.
func alignWords(size, b int) int { return ceilDiv(size, b) * b }

// GlobalWords returns the device footprint: the resident input plus one
// buffer set per stream, each buffer aligned to the warp width.
func (c Chunked) GlobalWords() (int, error) {
	chunkLen, _, streams, err := c.shape()
	if err != nil {
		return 0, err
	}
	b, span := c.Width, chunkLen*c.Unit
	set := c.Inputs * alignWords(span, b)
	if c.Combine == nil {
		set += alignWords(span, b)
	}
	if c.Scratch != nil {
		set += alignWords(c.Scratch(chunkLen), b)
	}
	return alignWords(c.Resident, b) + streams*set, nil
}

// Blocks returns the launch width the model is sized for: the widest
// round of the first, largest chunk (0 for a bad shape).
func (c Chunked) Blocks() int {
	chunkLen, _, _, err := c.shape()
	if err != nil {
		return 0
	}
	blocks := 0
	for _, r := range c.model(chunkLen) {
		blocks = max(blocks, r.Round.Blocks)
	}
	return blocks
}

// model is a chunk's rounds, for their model accounts only.
func (c Chunked) model(units int) []ChunkRound {
	rounds, _ := c.Chunk(units, Bufs{In: make([]int, c.Inputs)})
	return rounds
}

// Analyze returns the chunked ATGPU account: each chunk's rounds in
// order, the first carrying the chunk's inward transfer (and, for the
// first chunk, the resident input's), the last its outward one. Feed the
// result to core.GPUCostPipelined for the predicted sequential and
// overlapped costs.
func (c Chunked) Analyze(p core.Params) (*core.Analysis, error) {
	chunkLen, numChunks, _, err := c.shape()
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.B != c.Width {
		return nil, fmt.Errorf("%w: split for b=%d priced at b=%d", ErrBadShape, c.Width, p.B)
	}
	global, err := c.GlobalWords()
	if err != nil {
		return nil, err
	}
	a := &core.Analysis{Name: c.Name + "-pipelined", Params: p}
	for i := 0; i < numChunks; i++ {
		lo, hi := c.span(i, chunkLen)
		units := hi - lo
		rounds := c.model(units)
		for j, cr := range rounds {
			round := cr.Round
			round.GlobalWords = global
			if j == 0 {
				round.InWords = c.Inputs * units * c.Unit
				round.InTransactions = c.Inputs
				if i == 0 && c.Resident > 0 {
					round.InWords += c.Resident
					round.InTransactions++
				}
			}
			if j == len(rounds)-1 {
				round.OutWords = units * c.Unit
				if c.Combine != nil {
					round.OutWords = 1
				}
				round.OutTransactions = 1
			}
			a.Rounds = append(a.Rounds, round)
		}
	}
	if err := a.CheckFeasible(); err != nil {
		return nil, err
	}
	return a, nil
}

// Run executes the plan on h: the resident input in[Inputs] (when the
// split has one) moves first, then chunk c's input spans, kernels and
// readout are issued on stream c mod Streams, and one σ is charged at the
// end. The output lands in out (OutWords words); Run returns the
// Combine of it, or 0 without one.
func (c Chunked) Run(h *simgpu.Host, out []Word, in ...[]Word) (Word, error) {
	chunkLen, numChunks, numStreams, err := c.shape()
	if err != nil {
		return 0, err
	}
	if width := h.Device().Config().WarpWidth; width != c.Width {
		return 0, fmt.Errorf("%w: split for b=%d on warp width %d", ErrBadShape, c.Width, width)
	}
	if want := c.Inputs + min(c.Resident, 1); len(in) != want {
		return 0, fmt.Errorf("%w: %d inputs, want %d", ErrBadShape, len(in), want)
	}
	for i, v := range in {
		want := c.Len * c.Unit
		if i == c.Inputs {
			want = c.Resident
		}
		if err := checkLen(fmt.Sprintf("input %d", i), len(v), want); err != nil {
			return 0, err
		}
	}
	if err := checkLen("out", len(out), c.OutWords()); err != nil {
		return 0, err
	}
	alloc := func(words int) (int, error) {
		off, err := h.Malloc(words)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrDoesNotFit, err)
		}
		return off, nil
	}

	var resident int
	var ready timeline.Event
	if c.Resident > 0 {
		if resident, err = alloc(c.Resident); err != nil {
			return 0, err
		}
		if err := h.TransferIn(resident, in[c.Inputs]); err != nil {
			return 0, err
		}
		ready = h.DefaultStream().Record()
	}
	streams := make([]*simgpu.Stream, numStreams)
	sets := make([]Bufs, numStreams)
	span := chunkLen * c.Unit
	for s := range streams {
		streams[s] = h.NewStream(fmt.Sprintf("%s-%d", c.Name, s))
		if c.Resident > 0 {
			streams[s].Wait(ready)
		}
		set := Bufs{Resident: resident, In: make([]int, c.Inputs)}
		for i := range set.In {
			if set.In[i], err = alloc(span); err != nil {
				return 0, err
			}
		}
		if c.Combine == nil {
			if set.Out, err = alloc(span); err != nil {
				return 0, err
			}
		}
		if c.Scratch != nil {
			if set.Scratch, err = alloc(c.Scratch(chunkLen)); err != nil {
				return 0, err
			}
		}
		sets[s] = set
	}

	for i := 0; i < numChunks; i++ {
		lo, hi := c.span(i, chunkLen)
		s, set := streams[i%numStreams], sets[i%numStreams]
		for j, buf := range set.In {
			if err := h.AsyncTransferIn(s, buf, in[j][lo*c.Unit:hi*c.Unit]); err != nil {
				return 0, err
			}
		}
		rounds, result := c.Chunk(hi-lo, set)
		for _, r := range rounds {
			prog, err := r.Kernel()
			if err != nil {
				return 0, err
			}
			if _, err := h.AsyncLaunch(s, prog, r.Round.Blocks); err != nil {
				return 0, err
			}
		}
		var dst []Word
		if c.Combine != nil {
			dst = out[i : i+1]
		} else {
			dst = out[lo*c.Unit : hi*c.Unit]
		}
		if err := h.AsyncTransferOutInto(s, dst, result); err != nil {
			return 0, err
		}
	}
	h.EndRound()
	if c.Combine == nil {
		return 0, nil
	}
	return c.Combine(out), nil
}
