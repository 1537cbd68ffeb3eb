package simgpu

// Tracer records block-granularity scheduling events of one launch:
// when each thread block became resident on which SM, when it retired, and
// (optionally) each of its global-memory accesses. A host with a tracer
// attached embeds the block spans in its unified Perfetto trace (see
// Host.SetTracer).
//
// Tracing is opt-in per launch via Device.LaunchTraced; the default Launch
// path carries no tracing overhead.
type Tracer struct {
	// MaxEvents caps recorded events (0 means DefaultMaxEvents); beyond
	// the cap the tracer sets Truncated and drops further events, so
	// tracing a million-block launch degrades gracefully.
	MaxEvents int
	// CaptureMemory records an event per warp-wide global access.
	CaptureMemory bool

	blocks    []BlockSpan
	memEvents []MemEvent
	// Truncated reports whether the cap was hit.
	Truncated bool
}

// DefaultMaxEvents bounds trace growth unless overridden.
const DefaultMaxEvents = 1 << 20

// BlockSpan is one thread block's residency on an SM.
type BlockSpan struct {
	Block     int
	SM        int
	Scheduled int64 // cycle the block became resident
	Retired   int64 // cycle the block retired (-1 while running)
	Instrs    int64 // warp-instructions issued by the block
}

// MemEvent is one warp-wide global memory access.
type MemEvent struct {
	Block        int
	SM           int
	Cycle        int64
	Transactions int
	Store        bool
}

func (tr *Tracer) cap() int {
	if tr.MaxEvents > 0 {
		return tr.MaxEvents
	}
	return DefaultMaxEvents
}

func (tr *Tracer) onSchedule(block, sm int, cycle int64) int {
	if len(tr.blocks) >= tr.cap() {
		tr.Truncated = true
		return -1
	}
	tr.blocks = append(tr.blocks, BlockSpan{Block: block, SM: sm, Scheduled: cycle, Retired: -1})
	return len(tr.blocks) - 1
}

func (tr *Tracer) onRetire(idx int, cycle, instrs int64) {
	if idx < 0 || idx >= len(tr.blocks) {
		return
	}
	tr.blocks[idx].Retired = cycle
	tr.blocks[idx].Instrs = instrs
}

func (tr *Tracer) onMem(block, sm int, cycle int64, txns int, store bool) {
	if !tr.CaptureMemory {
		return
	}
	if len(tr.memEvents) >= tr.cap() {
		tr.Truncated = true
		return
	}
	tr.memEvents = append(tr.memEvents, MemEvent{
		Block: block, SM: sm, Cycle: cycle, Transactions: txns, Store: store,
	})
}

// Blocks returns the recorded block spans.
func (tr *Tracer) Blocks() []BlockSpan { return tr.blocks }

// MemEvents returns the recorded memory events.
func (tr *Tracer) MemEvents() []MemEvent { return tr.memEvents }
