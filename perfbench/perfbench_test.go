package main

import (
	"math"
	"os"
	"testing"
	"time"
)

// TestSmokeWorkloads runs the tiny variant of every workload in both
// modes: every output check passes and the report carries exactly the
// metrics of its mode.
func TestSmokeWorkloads(t *testing.T) {
	cat := testCatalog(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: time.Second, trace: trace,
				smoke: true, workdir: t.TempDir(), catalog: cat}
			rep, err := runIn(o, workloads[name])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d",
					name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			if trace {
				if rep.Metrics["trace.divergent"].Value != 0 {
					t.Errorf("%s: traced records diverge from the untraced pass", name)
				}
				if rep.Metrics["simgpu.warp_instrs"].Value <= 0 {
					t.Errorf("%s: traced pass simulated nothing", name)
				}
				if _, err := os.Stat(spanFile(o)); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
			}
		}
	}
}

// TestSmokeCountsRepeat pins the counts a speed-only change must leave
// identical: two traced runs of the same seed report the same values.
func TestSmokeCountsRepeat(t *testing.T) {
	exact := []string{"simgpu.warp_instrs", "simgpu.cycles", "transfer.words", "results.records"}
	cat := testCatalog(t)
	for _, name := range []string{"vecadd-sweep", "matmul-sweep"} {
		var first map[string]metric
		for i := 0; i < 2; i++ {
			o := options{workload: name, seed: 3, seconds: time.Second, trace: true,
				smoke: true, workdir: t.TempDir(), catalog: cat}
			rep, err := runIn(o, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = rep.Metrics
				continue
			}
			for _, m := range exact {
				if rep.Metrics[m] != first[m] {
					t.Errorf("%s %s: %v then %v", name, m, first[m].Value, rep.Metrics[m].Value)
				}
			}
		}
	}
}

// testCatalog loads the repository's BENCHMARK.json, which also checks
// that it names exactly the workloads the program runs.
func testCatalog(t *testing.T) *catalog {
	t.Helper()
	c, err := loadCatalog("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestResidualFlagged feeds the fold a traced layer sum above every
// untraced op, which the residual check must flag, and one above the
// median untraced op but within their spread, which it must not.
func TestResidualFlagged(t *testing.T) {
	untraced := []float64{1.4, 1.5, 1.6}
	for _, tc := range []struct {
		layers, flagged float64
	}{
		{layers: 1.7, flagged: 1},
		{layers: 1.55, flagged: 0},
	} {
		l := newLayerFold()
		self := map[string]time.Duration{"simgpu.launch": time.Duration(tc.layers * float64(time.Second))}
		l.add(2*time.Second, self, layerCounts{})
		rep := newReport()
		l.report(rep, untraced, true)
		if got := rep.Metrics["trace.residual_flagged"].Value; got != tc.flagged {
			t.Errorf("layer sum %vs: flagged %v, want %v", tc.layers, got, tc.flagged)
		}
		if got, want := rep.Metrics["experiments.residual_s"].Value, 1.5-tc.layers; math.Abs(got-want) > 1e-9 {
			t.Errorf("residual %v, want %v", got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "launch", start: 0, end: 100, parent: -1},
		{name: "certify", start: 10, end: 30, parent: 0},
		{name: "transfer", start: 100, end: 150, parent: -1},
	}
	self := tr.selfTimes(0)
	if self["launch"] != 80 || self["certify"] != 20 || self["transfer"] != 50 {
		t.Fatalf("self times %v", self)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty %v", got)
	}
}
