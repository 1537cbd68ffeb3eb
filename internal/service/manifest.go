// Package service implements atgpud: a long-running, fault-tolerant
// simulation service exposing the repo's run / sweep / pipeline / lint /
// analyze capabilities as a JSON HTTP API over a pool of warmed
// (pre-calibrated) systems.
//
// Robustness is the organising principle:
//
//   - every job is tracked in a manifest with an explicit state machine
//     (pending → running → success|failed|timeout|cancelled) and an
//     append-only event log;
//   - every job runs isolated — its own Host/Device/Engine via the
//     experiments runner, a context deadline, and panic recovery (the
//     internal/sched contract) that turns a crashing job into a failed
//     manifest entry with the stack attached instead of a dead daemon;
//   - admission is bounded — a full queue answers 429 with Retry-After,
//     per-client in-flight caps stop one client starving the rest, and
//     /readyz degrades to 503 under overload so load balancers back off
//     before the queue does;
//   - results are content-addressed — an FNV-1a key over what a result
//     depends on (kernels, machine parameters, sizes and, for the kinds
//     that simulate or stamp records, seeds, chunks and fault plan) with
//     single-flight deduplication, so identical requests never
//     re-simulate and a cache hit is byte-identical to a fresh run;
//   - shutdown drains: running jobs get a deadline to finish, the rest
//     are cancelled, and the manifest is persisted.
//
// The package is deliberately not under the determinism (notime) vet
// contract: job timestamps are wall-clock observability data. Everything
// inside a job — the simulation itself — remains fully deterministic,
// which is what makes the result cache sound.
package service

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"sort"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State string

// The manifest state machine: pending → running → one of the four
// terminal states; pending may also go straight to cancelled (cancelled
// while queued) or failed (rejected by the executor before start).
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateSuccess   State = "success"
	StateFailed    State = "failed"
	StateTimeout   State = "timeout"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state is finished for good.
func (s State) Terminal() bool {
	switch s {
	case StateSuccess, StateFailed, StateTimeout, StateCancelled:
		return true
	}
	return false
}

// legalTransitions enumerates the permitted state changes. Anything else
// is a programming error surfaced loudly rather than silently recorded.
var legalTransitions = map[State][]State{
	StatePending: {StateRunning, StateCancelled, StateFailed},
	StateRunning: {StateSuccess, StateFailed, StateTimeout, StateCancelled},
}

func transitionLegal(from, to State) bool {
	for _, t := range legalTransitions[from] {
		if t == to {
			return true
		}
	}
	return false
}

// Event is one append-only job-log entry.
type Event struct {
	// Time is the wall-clock instant the event was recorded.
	Time time.Time `json:"time"`
	// State is the state entered, when the event is a transition ("" for
	// informational events such as "cancel requested").
	State State `json:"state,omitempty"`
	// Msg explains the event.
	Msg string `json:"msg,omitempty"`
}

// Job is one manifest entry. The exported fields marshal into the
// persisted manifest and the API's job views; synchronisation lives in
// the Manifest, never in the Job.
type Job struct {
	// ID is the manifest-assigned identifier ("j-000042").
	ID string `json:"id"`
	// Client identifies the submitting client (per-client caps key).
	Client string `json:"client,omitempty"`
	// TraceID is the request/trace identifier assigned at admission
	// (the HTTP request ID for jobs submitted over the API), threaded
	// through the manifest, event log and structured logs so one job
	// can be followed across the plane.
	TraceID string `json:"trace_id,omitempty"`
	// Request is the submitted job request.
	Request Request `json:"request"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Worker is the id of the worker that ran the job (-1 = never
	// assigned).
	Worker int `json:"worker"`
	// Created, Started and Finished are wall-clock lifecycle stamps
	// (zero until reached).
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	// CacheHit marks a job served from the content-addressed cache
	// (including coalesced single-flight waiters).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error is the failure/timeout/cancellation message for non-success
	// terminal states.
	Error string `json:"error,omitempty"`
	// Stack is the recovered goroutine stack when the job panicked.
	Stack string `json:"stack,omitempty"`
	// Result is the job's deterministic result document (nil unless
	// success, or a fault-induced deterministic failure that still
	// produced a partial result).
	Result json.RawMessage `json:"result,omitempty"`
	// Events is the append-only event log.
	Events []Event `json:"events"`

	// cancel, when non-nil, cancels the running job's context. Guarded
	// by the manifest lock.
	cancel func()
	// cancelRequested marks a cancel arriving while running, so the
	// worker can distinguish cancellation from deadline expiry.
	cancelRequested bool
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

// clone returns a deep-enough copy for handing outside the lock: shared
// slices are never mutated after being set, so shallow copies of Result
// and Events are safe; the unexported coordination fields stay behind.
func (j *Job) clone() Job {
	c := *j
	c.cancel = nil
	c.done = nil
	return c
}

// Manifest is the synchronised job table: assignment, transitions, event
// appends, snapshots and persistence all pass through it.
type Manifest struct {
	mu   sync.Mutex
	jobs map[string]*Job
	// order holds job IDs in creation order, so listings and the
	// persisted manifest are deterministic.
	order []string
	seq   int
	// live counts each client's non-terminal jobs, so the per-client cap
	// and its gauge never walk the job table; a client leaves the map
	// when its count drops to zero.
	live map[string]int
	// observer, when non-nil, is called after every state transition
	// (from "" on Add) with a job view — outside the manifest lock, so
	// it may call back into the manifest.
	observer TransitionObserver
}

// TransitionObserver receives manifest state transitions: from is the
// previous state ("" when the job is first added as pending). Called
// synchronously but outside the manifest lock; job is a detached view.
// The telemetry plane counts jobs by kind×state and logs transitions
// through this hook.
type TransitionObserver func(job Job, from, to State)

// SetObserver installs the transition observer (nil disables). Install
// before jobs flow; transitions racing an install may be unobserved.
func (m *Manifest) SetObserver(fn TransitionObserver) {
	m.mu.Lock()
	m.observer = fn
	m.mu.Unlock()
}

// NewManifest returns an empty manifest.
func NewManifest() *Manifest {
	return &Manifest{jobs: make(map[string]*Job), live: make(map[string]int)}
}

// release drops a job that just turned terminal from its client's live
// count. The caller holds m.mu.
func (m *Manifest) release(client string) {
	if n := m.live[client] - 1; n > 0 {
		m.live[client] = n
	} else {
		delete(m.live, client)
	}
}

// Add registers a new pending job for the request and returns its view.
// traceID is the admission-assigned trace/request identifier ("" lets
// callers without one leave it unset).
func (m *Manifest) Add(client, traceID string, req Request) Job {
	m.mu.Lock()
	m.seq++
	j := &Job{
		ID:      fmt.Sprintf("j-%06d", m.seq),
		Client:  client,
		TraceID: traceID,
		Request: req,
		State:   StatePending,
		Worker:  -1,
		Created: time.Now(),
		done:    make(chan struct{}),
	}
	j.Events = append(j.Events, Event{Time: j.Created, State: StatePending, Msg: "submitted"})
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.live[client]++
	view, obs := j.clone(), m.observer
	m.mu.Unlock()
	if obs != nil {
		obs(view, "", StatePending)
	}
	return view
}

// Get returns a job view by ID.
func (m *Manifest) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.clone(), true
}

// List returns all job views in creation order.
func (m *Manifest) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].clone())
	}
	return out
}

// CountByState tallies jobs per state.
func (m *Manifest) CountByState() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts := make(map[State]int)
	for _, j := range m.jobs {
		counts[j.State]++
	}
	return counts
}

// NonTerminal returns the IDs of jobs not yet in a terminal state, in
// creation order — the leak check the chaos suite and the load harness's
// drain gate assert against.
func (m *Manifest) NonTerminal() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []string
	for _, id := range m.order {
		if !m.jobs[id].State.Terminal() {
			ids = append(ids, id)
		}
	}
	return ids
}

// InFlight counts a client's non-terminal jobs (the per-client cap).
func (m *Manifest) InFlight(client string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live[client]
}

// InFlightByClient tallies non-terminal jobs per client — the live
// per-client gauge the telemetry plane exports. Clients with none are
// absent.
func (m *Manifest) InFlightByClient() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.live)
}

// start transitions a pending job to running on the given worker. A
// false return means the job is no longer pending (cancelled while
// queued) and must not run.
func (m *Manifest) start(id string, worker int, cancel func()) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || j.State != StatePending {
		m.mu.Unlock()
		return false
	}
	j.State = StateRunning
	j.Worker = worker
	j.Started = time.Now()
	j.cancel = cancel
	j.Events = append(j.Events, Event{Time: j.Started, State: StateRunning,
		Msg: fmt.Sprintf("assigned to worker %d", worker)})
	view, obs := j.clone(), m.observer
	m.mu.Unlock()
	if obs != nil {
		obs(view, StatePending, StateRunning)
	}
	return true
}

// finish moves a job to a terminal state, recording outcome fields. It
// enforces the state machine: finishing an already-terminal job is a
// no-op returning false (first transition wins — e.g. a cancel racing a
// natural completion), and an illegal transition panics, because it can
// only be a service bug.
func (m *Manifest) finish(id string, to State, errMsg, stack string, result json.RawMessage, cacheHit bool) bool {
	if !to.Terminal() {
		panic(fmt.Sprintf("service: finish to non-terminal state %q", to))
	}
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return false
	}
	if j.State.Terminal() {
		m.mu.Unlock()
		return false
	}
	if !transitionLegal(j.State, to) {
		m.mu.Unlock()
		panic(fmt.Sprintf("service: illegal transition %s → %s for %s", j.State, to, id))
	}
	from := j.State
	j.State = to
	m.release(j.Client)
	j.Finished = time.Now()
	j.Error = errMsg
	j.Stack = stack
	j.Result = result
	j.CacheHit = cacheHit
	j.cancel = nil
	msg := "finished"
	if errMsg != "" {
		msg = errMsg
	}
	j.Events = append(j.Events, Event{Time: j.Finished, State: to, Msg: msg})
	if j.done != nil {
		close(j.done)
	}
	view, obs := j.clone(), m.observer
	m.mu.Unlock()
	if obs != nil {
		obs(view, from, to)
	}
	return true
}

// RequestCancel asks a job to stop: a pending job is cancelled on the
// spot; a running job has its context cancelled and is marked so the
// worker records cancelled rather than timeout. Returns the job's state
// after the request and whether the job exists.
func (m *Manifest) RequestCancel(id, reason string) (State, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return "", false
	}
	switch j.State {
	case StatePending:
		// Terminal transition inline; the worker will skip it on pop.
		j.State = StateCancelled
		m.release(j.Client)
		j.Finished = time.Now()
		j.Error = reason
		j.Events = append(j.Events, Event{Time: j.Finished, State: StateCancelled, Msg: reason})
		if j.done != nil {
			close(j.done)
		}
		view, obs := j.clone(), m.observer
		m.mu.Unlock()
		if obs != nil {
			obs(view, StatePending, StateCancelled)
		}
		return StateCancelled, true
	case StateRunning:
		j.cancelRequested = true
		cancel := j.cancel
		j.Events = append(j.Events, Event{Time: time.Now(), Msg: "cancel requested: " + reason})
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return StateRunning, true
	default:
		st := j.State
		m.mu.Unlock()
		return st, true
	}
}

// cancelRequestedFor reports whether a cancel was requested while the
// job ran (distinguishes cancellation from deadline expiry).
func (m *Manifest) cancelRequestedFor(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return ok && j.cancelRequested
}

// Done returns the job's completion channel (closed at terminal state),
// or nil if the job does not exist.
func (m *Manifest) Done(id string) <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j.done
	}
	return nil
}

// appendEvent records an informational (non-transition) event.
func (m *Manifest) appendEvent(id, msg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		j.Events = append(j.Events, Event{Time: time.Now(), Msg: msg})
	}
}

// PersistedManifest is the on-disk shape: a versioned, ordered job list.
type PersistedManifest struct {
	Version int   `json:"version"`
	Saved   int64 `json:"saved_unix"`
	Jobs    []Job `json:"jobs"`
}

// Save writes the manifest as JSON, atomically (write temp + rename), in
// creation order. Called on graceful shutdown so a restarted daemon (or
// an operator) can audit exactly what was in flight.
func (m *Manifest) Save(path string) error {
	snap := PersistedManifest{Version: 1, Saved: time.Now().Unix(), Jobs: m.List()}
	sort.SliceStable(snap.Jobs, func(i, k int) bool { return snap.Jobs[i].ID < snap.Jobs[k].ID })
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadManifest reads a persisted manifest for inspection (the daemon
// itself always starts empty; history is an audit artifact, not state).
func LoadManifest(path string) (PersistedManifest, error) {
	var snap PersistedManifest
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, err
	}
	return snap, nil
}
