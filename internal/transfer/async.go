package transfer

import (
	"fmt"
	"strconv"
	"time"

	"atgpu/internal/mem"
	"atgpu/internal/obs"
	"atgpu/internal/timeline"
)

// Async transfer entry points: the same verified, retried transactions
// as In/Out/InChunked, but instead of handing the simulated cost back
// to the caller to accumulate, the engine charges it onto a shared
// timeline as an occupancy of the given link resource. The memory
// movement itself happens immediately (simulation state advances in
// program order); only the cost is deferred onto the timeline, where
// same-resource transfers serialize and transfers on other resources
// overlap.
//
// Faulted attempts keep their sync-path semantics: retries and backoff
// waits extend the single scheduled occupancy, so a fault on one
// stream widens that stream's link interval without ever touching
// operations already placed on other resources.
//
// The timeline is not locked by the engine; callers (the simgpu Host)
// must serialize all scheduling onto one timeline from a single
// goroutine, as the timeline package requires.

// InAsync copies src into device global memory at offset and schedules
// the transfer's full cost (retries and backoff included) on res,
// starting no earlier than the events in after. It returns the event
// marking transfer completion.
func (e *Engine) InAsync(tl *timeline.Timeline, res *timeline.Resource, g *mem.Global, offset int, src []mem.Word, after ...timeline.Event) (timeline.Event, error) {
	e.mu.Lock()
	d, rec, err := e.in(g, offset, src)
	e.mu.Unlock()
	if err != nil {
		return timeline.Event{}, err
	}
	ev := tl.Schedule(res, d, fmt.Sprintf("H2D %d words", len(src)), after...)
	e.span(ev, d, rec)
	return ev, nil
}

// OutAsync copies len(dst) words at offset from device global memory
// back to the host into dst and schedules the transfer's cost on res.
func (e *Engine) OutAsync(tl *timeline.Timeline, res *timeline.Resource, g *mem.Global, offset int, dst []mem.Word, after ...timeline.Event) (timeline.Event, error) {
	e.mu.Lock()
	d, rec, err := e.out(g, offset, dst)
	e.mu.Unlock()
	if err != nil {
		return timeline.Event{}, err
	}
	ev := tl.Schedule(res, d, fmt.Sprintf("D2H %d words", len(dst)), after...)
	e.span(ev, d, rec)
	return ev, nil
}

// InChunkedAsync is InChunked on the timeline: each chunk is its own
// transaction (paying α) and its own scheduled occupancy, chained so
// chunk i+1 starts no earlier than chunk i completes. The returned
// event marks the last chunk's completion.
func (e *Engine) InChunkedAsync(tl *timeline.Timeline, res *timeline.Resource, g *mem.Global, offset int, src []mem.Word, chunk int, after ...timeline.Event) (timeline.Event, error) {
	if chunk <= 0 {
		return timeline.Event{}, fmt.Errorf("transfer: chunk must be positive, got %d", chunk)
	}
	prev := tl.AfterAll(after...)
	for base := 0; base < len(src); base += chunk {
		end := base + chunk
		if end > len(src) {
			end = len(src)
		}
		e.mu.Lock()
		d, rec, err := e.in(g, offset+base, src[base:end])
		e.mu.Unlock()
		if err != nil {
			return timeline.Event{}, err
		}
		prev = tl.Schedule(res, d, fmt.Sprintf("H2D %d words", end-base), prev)
		e.span(prev, d, rec)
	}
	return prev, nil
}

// span emits one completed transaction onto the trace as an occupancy
// of the link ending at ev, annotated with retry detail, plus an
// instant per fault class hit during the transaction. No-op without a
// recorder attached. Reads e.orec without the engine lock: SetObs
// happens during host setup and async issue is single-goroutine per
// the timeline contract.
func (e *Engine) span(ev timeline.Event, d time.Duration, r Record) {
	if e.orec == nil {
		return
	}
	track := r.Direction.String()
	start := ev.Time() - d
	args := []obs.Arg{{Key: "words", Value: strconv.Itoa(r.Words)}}
	if r.Attempts > 1 {
		args = append(args, obs.Arg{Key: "attempts", Value: strconv.Itoa(r.Attempts)})
	}
	if r.Backoff > 0 {
		args = append(args, obs.Arg{Key: "backoff", Value: r.Backoff.String()})
	}
	e.orec.Span("transfer", track, fmt.Sprintf("%s %d words", track, r.Words), start, ev.Time(), args...)
	for _, f := range []struct {
		name  string
		count int
	}{
		{"fault: corrupt", r.Corruptions},
		{"fault: drop", r.Drops},
		{"fault: stall", r.Stalls},
	} {
		if f.count > 0 {
			e.orec.Instant("transfer", track, f.name, start,
				obs.Arg{Key: "count", Value: strconv.Itoa(f.count)})
		}
	}
}
