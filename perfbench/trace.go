package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions.
type span struct {
	name string
	// id names the sweep point or service job the call served.
	id         string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span; -1 at top level
	lane       int           // client goroutine (service) or 0
}

// tracer keeps spans in memory until the pass ends. begin/end nest
// spans on one goroutine; record adds a finished top-level span and is
// safe from several goroutines.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span inside the innermost open one.
func (t *tracer) begin(name, id string) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, id: id, start: now, parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	t.open = t.open[:len(t.open)-1]
}

// record adds a finished top-level span measured by the caller.
func (t *tracer) record(name, id string, lane int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, lane: lane,
		start: start.Sub(t.origin), end: end.Sub(t.origin), parent: -1})
}

// mark returns the position the next span will take, so a caller can
// fold the spans of one op.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes folds the spans from position from onwards into per-name
// self time: a span's duration minus the part its children cover.
func (t *tracer) selfTimes(from int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]time.Duration{}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		self[s.name] += s.end - s.start
		if s.parent >= from {
			self[t.spans[s.parent].name] -= s.end - s.start
		}
	}
	return self
}

// write saves the spans as a Chrome/Perfetto trace-event file.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "span": i, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
