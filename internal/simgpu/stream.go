package simgpu

import (
	"fmt"
	"strconv"
	"time"

	"atgpu/internal/faults"
	"atgpu/internal/kernel"
	"atgpu/internal/mem"
	"atgpu/internal/obs"
	"atgpu/internal/timeline"
)

// Stream is a CUDA-stream-like command queue on the host's shared
// timeline. Operations issued to one stream execute in issue order
// (each starts no earlier than the stream's previous operation
// completed); operations in different streams are unordered and
// overlap freely, bounded only by the hardware resources they occupy:
// the H2D and D2H halves of the PCIe link and the SM array are
// distinct timeline resources, so same-direction transfers serialize
// while a transfer overlaps compute and the opposite direction.
//
// Simulation state (device memory, kernel effects) advances in program
// order at issue time; the stream machinery models *timing* only.
// Cross-stream data dependencies must therefore be expressed with
// Record/Wait so the simulated schedule matches the program-order
// semantics the data actually saw.
//
// Like the Host, streams are single-goroutine: issue all work on one
// host from one goroutine.
type Stream struct {
	h        *Host
	name     string
	frontier timeline.Event
}

// Name returns the stream's label.
func (s *Stream) Name() string { return s.name }

// Record returns an event marking the completion of all work issued to
// the stream so far (cudaEventRecord).
func (s *Stream) Record() timeline.Event { return s.frontier }

// Wait makes all subsequently issued work on the stream start no
// earlier than ev completes (cudaStreamWaitEvent).
func (s *Stream) Wait(ev timeline.Event) {
	s.frontier = s.h.tl.AfterAll(s.frontier, ev)
}

// Sync reports the simulated instant at which all work issued to this
// stream completes (cudaStreamSynchronize).
func (s *Stream) Sync() time.Duration { return s.frontier.Time() }

// NewStream creates a named stream starting at the current barrier
// point (the origin on a fresh host).
func (h *Host) NewStream(name string) *Stream {
	s := &Stream{h: h, name: name, frontier: h.barrier}
	h.streams = append(h.streams, s)
	return s
}

// DefaultStream returns the stream the synchronous TransferIn / Launch
// / TransferOut wrappers issue onto.
func (h *Host) DefaultStream() *Stream { return h.def }

// stream resolves nil to the default stream and rejects foreign ones.
func (h *Host) stream(s *Stream) *Stream {
	if s == nil {
		return h.def
	}
	if s.h != h {
		panic(fmt.Sprintf("simgpu: stream %q belongs to a different host", s.name))
	}
	return s
}

// AsyncTransferIn issues a host-to-device transfer on s. The words
// land immediately (program order); the cost occupies the H2D link
// after the stream's prior work.
func (h *Host) AsyncTransferIn(s *Stream, offset int, data []mem.Word) error {
	s = h.stream(s)
	h.enterStream(s)
	defer h.leaveStream()
	ev, err := h.engine.InAsync(h.tl, h.resH2D, h.dev.Global(), offset, data, s.frontier)
	if err != nil {
		return err
	}
	s.frontier = ev
	return nil
}

// AsyncTransferInChunked issues a chunked host-to-device transfer on
// s: one α-paying transaction per chunk, chained in stream order.
func (h *Host) AsyncTransferInChunked(s *Stream, offset int, data []mem.Word, chunk int) error {
	s = h.stream(s)
	h.enterStream(s)
	defer h.leaveStream()
	ev, err := h.engine.InChunkedAsync(h.tl, h.resH2D, h.dev.Global(), offset, data, chunk, s.frontier)
	if err != nil {
		return err
	}
	s.frontier = ev
	return nil
}

// AsyncTransferOut issues a device-to-host transfer on s, occupying
// the D2H link. The returned slice holds the device words as of issue
// time (program order).
func (h *Host) AsyncTransferOut(s *Stream, offset, length int) ([]mem.Word, error) {
	if err := h.dev.Global().CheckRead(offset, length); err != nil {
		return nil, err
	}
	dst := make([]mem.Word, length)
	if err := h.AsyncTransferOutInto(s, dst, offset); err != nil {
		return nil, err
	}
	return dst, nil
}

// AsyncTransferOutInto is AsyncTransferOut into dst: it moves len(dst)
// words at offset into the caller's buffer instead of a fresh one.
func (h *Host) AsyncTransferOutInto(s *Stream, dst []mem.Word, offset int) error {
	s = h.stream(s)
	h.enterStream(s)
	defer h.leaveStream()
	ev, err := h.engine.OutAsync(h.tl, h.resD2H, h.dev.Global(), offset, dst, s.frontier)
	if err != nil {
		return err
	}
	s.frontier = ev
	return nil
}

// AsyncLaunch issues a kernel launch on s, occupying the SM array
// after the stream's prior work. Fault handling matches the
// synchronous Launch: hung launches burn the watchdog timeout on the
// compute resource in stream order before relaunching.
func (h *Host) AsyncLaunch(s *Stream, prog *kernel.Program, numBlocks int) (KernelResult, error) {
	s = h.stream(s)
	h.enterStream(s)
	defer h.leaveStream()
	if h.preLaunch != nil {
		if err := h.preLaunch(prog, numBlocks); err != nil {
			return KernelResult{}, err
		}
	}
	for attempt := 0; ; attempt++ {
		if h.inj != nil {
			d := h.inj.Launch(attempt, h.dev.Config().NumSMs)
			switch d.Kind {
			case faults.Hang:
				s.frontier = h.tl.Schedule(h.resCompute, h.watchdog, "watchdog "+prog.Name, s.frontier)
				h.resil.WatchdogFires++
				h.resil.WatchdogTime += h.watchdog
				h.orec.Instant("faults", "kernel", "watchdog "+prog.Name, s.frontier.Time(),
					obs.Arg{Key: "attempt", Value: strconv.Itoa(attempt + 1)})
				h.omet.Add("atgpu_faults_hang_total", 1)
				if attempt >= h.maxRelaunches {
					return KernelResult{}, fmt.Errorf("%w: kernel %s hung %d times",
						ErrWatchdogExhausted, prog.Name, attempt+1)
				}
				h.resil.Relaunches++
				h.omet.Add("atgpu_host_relaunches_total", 1)
				continue
			case faults.SMFail:
				n := h.dev.Config().NumSMs
				victim := ((d.Victim % n) + n) % n
				// Graceful floor: failing the last active SM is refused
				// and the launch proceeds at current capacity.
				if err := h.dev.FailSM(victim); err == nil {
					h.resil.FailedSMs++
					h.orec.Instant("faults", "kernel", "SM failure", s.frontier.Time(),
						obs.Arg{Key: "sm", Value: strconv.Itoa(victim)})
					h.omet.Add("atgpu_faults_smfail_total", 1)
				}
			}
		}
		blocksBefore := 0
		if h.tracer != nil {
			blocksBefore = len(h.tracer.blocks)
		}
		res, err := h.dev.LaunchTraced(prog, numBlocks, h.tracer)
		if err != nil {
			return res, err
		}
		if h.dev.ActiveSMs() < h.dev.Config().NumSMs {
			h.resil.DegradedLaunches++
		}
		s.frontier = h.tl.Schedule(h.resCompute, res.Time, "kernel "+prog.Name, s.frontier)
		if h.orec != nil && h.tracer != nil {
			h.emitBlockSpans(prog.Name, blocksBefore, s.frontier.Time()-res.Time)
		}
		h.omet.Add("atgpu_host_launches_total", 1)
		h.kernelStats.Merge(res.Stats)
		h.launches++
		if h.launchObs != nil {
			h.launchObs(prog, numBlocks, res)
		}
		return res, nil
	}
}

// Sync is a device-wide barrier (cudaDeviceSynchronize): it joins
// every stream's outstanding work — subsequent operations on any
// stream start no earlier than all current work completes — and
// reports the simulated instant of that join. Unlike EndRound it
// charges no σ and ends no round.
func (h *Host) Sync() time.Duration {
	evs := make([]timeline.Event, 0, len(h.streams))
	for _, s := range h.streams {
		evs = append(evs, s.frontier)
	}
	join := h.tl.AfterAll(evs...)
	for _, s := range h.streams {
		s.frontier = join
	}
	h.barrier = join
	return join.Time()
}
