package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"atgpu/internal/simgpu"
)

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero device", func(c *Config) { c.Device = simgpu.Config{} }, "zero-value Device"},
		{"invalid device", func(c *Config) { c.Device.NumSMs = -1 }, "device"},
		{"negative sync", func(c *Config) { c.SyncCost = -time.Second }, "SyncCost"},
		{"zero vecadd size", func(c *Config) { c.SizesVecAdd = []int{1024, 0} }, "SizesVecAdd"},
		{"negative reduce size", func(c *Config) { c.SizesReduce = []int{-4} }, "SizesReduce"},
		{"zero matmul size", func(c *Config) { c.SizesMatMul = []int{0} }, "SizesMatMul"},
		{"fault rate > 1", func(c *Config) { c.FaultRate = 1.5 }, "FaultRate"},
		{"fault rate < 0", func(c *Config) { c.FaultRate = -0.1 }, "FaultRate"},
		{"negative retries", func(c *Config) { c.MaxRetries = -1 }, "MaxRetries"},
		{"negative watchdog", func(c *Config) { c.Watchdog = -time.Second }, "Watchdog"},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("%s: NewRunner accepted invalid config", tc.name)
		}
	}
}

// faultedConfig is a small sweep with enough injected faults to exercise
// retries without exhausting them.
func faultedConfig() Config {
	cfg := testConfig()
	cfg.FaultRate = 0.2
	cfg.FaultSeed = 11
	cfg.MaxRetries = 64
	return cfg
}

// TestFaultedSweepCompletes is the acceptance scenario: with a fixed fault
// seed and rate > 0 the sweep runs to completion, reporting per-point
// retry and degradation statistics instead of aborting.
func TestFaultedSweepCompletes(t *testing.T) {
	r, err := NewRunner(faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.RunVecAdd()
	if err != nil {
		t.Fatalf("faulted sweep aborted: %v", err)
	}
	if len(data.Points) != 3 {
		t.Fatalf("points = %d, want every size recorded", len(data.Points))
	}
	degraded := 0
	for _, p := range data.Points {
		if p.Degraded() {
			degraded++
		}
		if p.Failed && p.Err == "" {
			t.Fatalf("failed point n=%d has no error message", p.N)
		}
		if p.Degraded() && len(p.FaultLog) == 0 {
			t.Fatalf("degraded point n=%d has empty fault log", p.N)
		}
	}
	if degraded == 0 {
		t.Fatal("rate-0.2 sweep saw no faults; test is vacuous")
	}
	if data.FailedPoints() == len(data.Points) {
		t.Fatal("every point failed under a recoverable rate")
	}
	s, err := Summarise(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Retries == 0 && s.WatchdogFires == 0 && s.DegradedLaunches == 0 && s.FailedPoints == 0 {
		t.Fatalf("summary carries no resilience aggregates: %+v", s)
	}
	if !strings.Contains(s.String(), "resilience:") {
		t.Fatal("faulted summary omits the resilience line")
	}
}

// TestFaultedSweepDeterministic: the same fault seed replays identical
// points — timings, retry counts and fault logs.
func TestFaultedSweepDeterministic(t *testing.T) {
	run := func() *WorkloadData {
		r, err := NewRunner(faultedConfig())
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.Sweep("reduce")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1, d2 := run(), run()
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("faulted sweeps diverged across replays:\n%+v\n%+v", d1, d2)
	}
}

// TestFaultRateZeroIdentical: at rate 0 no injector is attached, points
// carry no resilience data, and the summary has no resilience line — the
// byte-identical fast path.
func TestFaultRateZeroIdentical(t *testing.T) {
	r := newTestRunner(t)
	data, err := r.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range data.Points {
		if p.Degraded() || p.FaultLog != nil || p.Transfers.Retries != 0 {
			t.Fatalf("fault-free point carries resilience data: %+v", p)
		}
	}
	s, err := Summarise(data)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s.String(), "resilience:") {
		t.Fatal("fault-free summary grew a resilience line")
	}
}

// TestRetryExhaustionRecordsPoint: at rate 1 with a tiny retry budget every
// transfer fails permanently; the sweep still completes, recording each
// point as failed with its error and fault log.
func TestRetryExhaustionRecordsPoint(t *testing.T) {
	cfg := testConfig()
	cfg.SizesVecAdd = []int{1 << 10}
	cfg.FaultRate = 1
	cfg.FaultSeed = 3
	cfg.MaxRetries = 2
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.RunVecAdd()
	if err != nil {
		t.Fatalf("exhausted sweep aborted instead of recording: %v", err)
	}
	if len(data.Points) != 1 || !data.Points[0].Failed {
		t.Fatalf("points = %+v, want one failed point", data.Points)
	}
	p := data.Points[0]
	if p.Err == "" || len(p.FaultLog) == 0 {
		t.Fatalf("failed point lacks post-mortem data: err=%q log=%d entries", p.Err, len(p.FaultLog))
	}
	if data.FailedPoints() != 1 || len(data.Successful()) != 0 {
		t.Fatal("failure accounting wrong")
	}
	if _, err := Summarise(data); err == nil {
		t.Fatal("Summarise accepted a sweep with no successful points")
	}
}

// TestFiguresSkipFailedPoints: figures are built from successful points
// only, so a failed point shortens the series instead of poisoning it.
func TestFiguresSkipFailedPoints(t *testing.T) {
	d := &WorkloadData{Workload: "vecadd", Points: []WorkloadPoint{
		{N: 10, TotalTime: 1},
		{N: 20, Failed: true, Err: "injected"},
		{N: 30, TotalTime: 3},
	}}
	for _, f := range Figures(d) {
		for _, s := range f.Series {
			if len(s.X) != 2 {
				t.Fatalf("figure %s series %s has %d points, want 2", f.ID, s.Name, len(s.X))
			}
		}
	}
	if got := d.Sizes(); len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("sizes = %v", got)
	}
}
