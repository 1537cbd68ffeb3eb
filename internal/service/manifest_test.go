package service

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func testRequest() Request {
	req, err := Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny"}.Normalize()
	if err != nil {
		panic(err)
	}
	return req
}

func TestManifestLifecycle(t *testing.T) {
	m := NewManifest()
	job := m.Add("c1", "", testRequest())
	if job.ID != "j-000001" || job.State != StatePending || job.Worker != -1 {
		t.Fatalf("fresh job = %+v", job)
	}
	if !m.start(job.ID, 3, func() {}) {
		t.Fatal("start refused a pending job")
	}
	got, _ := m.Get(job.ID)
	if got.State != StateRunning || got.Worker != 3 || got.Started.IsZero() {
		t.Fatalf("running job = %+v", got)
	}
	if !m.finish(job.ID, StateSuccess, "", "", []byte(`{"x":1}`), true) {
		t.Fatal("finish refused a running job")
	}
	got, _ = m.Get(job.ID)
	if got.State != StateSuccess || !got.CacheHit || string(got.Result) != `{"x":1}` {
		t.Fatalf("finished job = %+v", got)
	}
	if len(got.Events) != 3 {
		t.Fatalf("events = %+v, want submitted/running/finished", got.Events)
	}
	select {
	case <-m.Done(job.ID):
	default:
		t.Fatal("done channel not closed at terminal state")
	}
}

func TestManifestFirstTransitionWins(t *testing.T) {
	m := NewManifest()
	job := m.Add("c1", "", testRequest())
	m.start(job.ID, 0, func() {})
	if !m.finish(job.ID, StateTimeout, "deadline", "", nil, false) {
		t.Fatal("first finish refused")
	}
	if m.finish(job.ID, StateSuccess, "", "", []byte("late"), false) {
		t.Fatal("second finish accepted")
	}
	got, _ := m.Get(job.ID)
	if got.State != StateTimeout || got.Result != nil {
		t.Fatalf("job after racing finishes = %+v", got)
	}
}

func TestManifestIllegalTransitionPanics(t *testing.T) {
	m := NewManifest()
	job := m.Add("c1", "", testRequest())
	// pending → timeout is not a legal edge.
	defer func() {
		if recover() == nil {
			t.Fatal("illegal transition did not panic")
		}
	}()
	m.finish(job.ID, StateTimeout, "", "", nil, false)
}

func TestManifestCancelPendingAndRunning(t *testing.T) {
	m := NewManifest()
	queued := m.Add("c1", "", testRequest())
	if st, ok := m.RequestCancel(queued.ID, "test cancel"); !ok || st != StateCancelled {
		t.Fatalf("cancel pending: state=%v ok=%v", st, ok)
	}
	if m.start(queued.ID, 0, func() {}) {
		t.Fatal("start accepted a cancelled job")
	}

	running := m.Add("c1", "", testRequest())
	fired := false
	m.start(running.ID, 0, func() { fired = true })
	if st, ok := m.RequestCancel(running.ID, "test cancel"); !ok || st != StateRunning {
		t.Fatalf("cancel running: state=%v ok=%v", st, ok)
	}
	if !fired || !m.cancelRequestedFor(running.ID) {
		t.Fatal("running cancel did not fire the context cancel")
	}
	// The worker then records the terminal state.
	m.finish(running.ID, StateCancelled, "cancelled by client", "", nil, false)

	if _, ok := m.RequestCancel("j-999999", "x"); ok {
		t.Fatal("cancel of unknown job reported ok")
	}
}

func TestManifestNonTerminalAndCounts(t *testing.T) {
	m := NewManifest()
	a := m.Add("c1", "", testRequest())
	b := m.Add("c2", "", testRequest())
	m.Add("c1", "", testRequest()) // stays pending
	m.start(a.ID, 0, func() {})
	m.finish(a.ID, StateSuccess, "", "", nil, false)
	m.start(b.ID, 1, func() {})

	if got := m.NonTerminal(); len(got) != 2 || got[0] != b.ID {
		t.Fatalf("NonTerminal = %v", got)
	}
	counts := m.CountByState()
	if counts[StateSuccess] != 1 || counts[StateRunning] != 1 || counts[StatePending] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if m.InFlight("c1") != 1 || m.InFlight("c2") != 1 || m.InFlight("nobody") != 0 {
		t.Fatalf("in-flight: c1=%d c2=%d", m.InFlight("c1"), m.InFlight("c2"))
	}
}

func TestManifestSaveLoad(t *testing.T) {
	m := NewManifest()
	a := m.Add("c1", "", testRequest())
	m.start(a.ID, 0, func() {})
	m.finish(a.ID, StateFailed, "boom", "stack here", nil, false)
	m.Add("c2", "", testRequest())

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || len(snap.Jobs) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Jobs[0].ID != a.ID || snap.Jobs[0].State != StateFailed ||
		snap.Jobs[0].Error != "boom" || !strings.Contains(snap.Jobs[0].Stack, "stack") {
		t.Fatalf("persisted job 0 = %+v", snap.Jobs[0])
	}
	if snap.Jobs[1].State != StatePending {
		t.Fatalf("persisted job 1 = %+v", snap.Jobs[1])
	}
}

// TestManifestLiveCountsMatchScan drives random add/start/finish/cancel
// sequences and checks the per-client live counts against a walk of
// every job after each step.
func TestManifestLiveCountsMatchScan(t *testing.T) {
	clients := []string{"a", "b", "c", ""}
	terminal := []State{StateSuccess, StateFailed, StateTimeout, StateCancelled}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewManifest()
		var ids []string
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(4); {
			case op == 0 || len(ids) == 0:
				ids = append(ids, m.Add(clients[rng.Intn(len(clients))], "", testRequest()).ID)
			case op == 1:
				m.start(ids[rng.Intn(len(ids))], 0, func() {})
			case op == 2:
				id := ids[rng.Intn(len(ids))]
				if j, _ := m.Get(id); j.State == StateRunning {
					m.finish(id, terminal[rng.Intn(len(terminal))], "", "", nil, false)
				}
			default:
				m.RequestCancel(ids[rng.Intn(len(ids))], "test")
			}
			want := map[string]int{}
			for _, j := range m.List() {
				if !j.State.Terminal() {
					want[j.Client]++
				}
			}
			got := m.InFlightByClient()
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: live counts %v, scan %v", seed, step, got, want)
			}
			for _, c := range clients {
				if got[c] != want[c] || m.InFlight(c) != want[c] {
					t.Fatalf("seed %d step %d: client %q live %d (InFlight %d), scan %d",
						seed, step, c, got[c], m.InFlight(c), want[c])
				}
			}
		}
	}
}
