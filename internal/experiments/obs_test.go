package experiments

import (
	"bytes"
	"strings"
	"testing"

	"atgpu/internal/obs"
)

// obsConfig is the faulted sweep with full observability collection: the
// hardest determinism case, since retries, backoff and fault events all
// land in the trace and metrics.
func obsConfig(workers int) Config {
	cfg := faultedConfig()
	cfg.Workers = workers
	cfg.Obs = obs.Options{Trace: true, Metrics: true}
	return cfg
}

// renderObs runs the faulted vecadd sweep and renders its folded report
// to bytes: the Perfetto trace JSON and the Prometheus metrics text.
func renderObs(t *testing.T, workers int) (trace, metrics []byte) {
	t.Helper()
	r, err := NewRunner(obsConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.RunVecAdd()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if data.Obs == nil {
		t.Fatalf("workers=%d: no report collected", workers)
	}
	var tb, mb bytes.Buffer
	if err := data.Obs.Trace.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := data.Obs.Metrics.WritePrometheus(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// TestObsByteIdenticalAcrossWorkers is the observability determinism
// acceptance test: the folded trace and metrics of a faulted sweep are
// byte-identical whether the points ran sequentially or on 2 or 4
// goroutines, because every point records into its own sinks and the
// fold happens in point order.
func TestObsByteIdenticalAcrossWorkers(t *testing.T) {
	wantTrace, wantMetrics := renderObs(t, 1)
	for _, workers := range []int{2, 4} {
		gotTrace, gotMetrics := renderObs(t, workers)
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("workers=%d: trace differs from sequential run (%d vs %d bytes)",
				workers, len(gotTrace), len(wantTrace))
		}
		if !bytes.Equal(gotMetrics, wantMetrics) {
			t.Errorf("workers=%d: metrics differ from sequential run:\n%s\nvs\n%s",
				workers, gotMetrics, wantMetrics)
		}
	}
}

// TestObsFaultedSweepRecordsFaults checks the fault machinery lands in
// the unified report: a faulted sweep must surface retries in the
// metrics and per-point process groups in the trace.
func TestObsFaultedSweepRecordsFaults(t *testing.T) {
	_, metrics := renderObs(t, 1)
	text := string(metrics)
	for _, want := range []string{
		"atgpu_transfer_retries_total",
		"atgpu_transfer_in_words_total",
		"atgpu_host_rounds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s:\n%s", want, text)
		}
	}
}

// TestObsPipelineSweepTagsSchedules checks the pipelined sweep's folded
// trace keeps the two schedules apart: every point contributes both a
// "seq/" and a "pipe/" process group.
func TestObsPipelineSweepTagsSchedules(t *testing.T) {
	cfg := testConfig()
	cfg.Obs = obs.Options{Trace: true}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.SweepPipelined("reduce")
	if err != nil {
		t.Fatal(err)
	}
	if data.Obs == nil || data.Obs.Trace == nil {
		t.Fatal("no trace collected")
	}
	seq, pipe := false, false
	for _, s := range data.Obs.Trace.Spans() {
		if strings.Contains(s.Proc, "/seq/") {
			seq = true
		}
		if strings.Contains(s.Proc, "/pipe/") {
			pipe = true
		}
	}
	if !seq || !pipe {
		t.Errorf("trace missing schedule tags: seq=%v pipe=%v", seq, pipe)
	}
}

// TestObsOffLeavesReportsNil checks the disabled default stays inert:
// no Obs field is populated anywhere in the sweep results.
func TestObsOffLeavesReportsNil(t *testing.T) {
	r := newTestRunner(t)
	data, err := r.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	if data.Obs != nil {
		t.Error("sweep collected a report with observability off")
	}
	for _, p := range data.Points {
		if p.Obs != nil {
			t.Errorf("point n=%d collected a report with observability off", p.N)
		}
	}
}
