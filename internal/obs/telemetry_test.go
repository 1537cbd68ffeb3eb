package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNameComposition(t *testing.T) {
	cases := []struct {
		family string
		labels []Label
		want   string
	}{
		{"atgpud_jobs_total", nil, "atgpud_jobs_total"},
		{"atgpud_jobs_total", []Label{{"state", "success"}, {"kind", "run"}},
			`atgpud_jobs_total{kind="run",state="success"}`},
		{"bad name!", []Label{{"k", "v"}}, `bad_name_{k="v"}`},
		{"9lead", nil, "_9lead"},
		{"fam", []Label{{"client", `quote" back\ nl` + "\n"}},
			`fam{client="quote\" back\\ nl\n"}`},
		{"fam", []Label{{"bad-key", "v"}}, `fam{bad_key="v"}`},
	}
	for _, c := range cases {
		if got := Name(c.family, c.labels...); got != c.want {
			t.Errorf("Name(%q, %v) = %q, want %q", c.family, c.labels, got, c.want)
		}
	}
	// Equal label sets in any order compose identically.
	a := Name("f", Label{"x", "1"}, Label{"y", "2"})
	b := Name("f", Label{"y", "2"}, Label{"x", "1"})
	if a != b {
		t.Fatalf("label order changed composition: %q vs %q", a, b)
	}
}

// TestPrometheusRoundTrip pins satellite 1: WritePrometheus output,
// fed back through the strict exposition parser, reproduces every
// value — including labeled series, escaped label values, and
// histogram children.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Add("atgpu_host_launches_total", 7)
	reg.Add(Name("atgpud_jobs_total", Label{"kind", "run"}, Label{"state", "success"}), 5)
	reg.Add(Name("atgpud_jobs_total", Label{"kind", "sweep"}, Label{"state", "failed"}), 2)
	reg.Add(Name("atgpud_rejected_total", Label{"reason", `odd"value\with`}), 3)
	reg.Set("atgpud_queue_depth", 4)
	reg.Set(Name("atgpud_client_inflight", Label{"client", "10.0.0.1"}), 2.5)
	reg.Observe("atgpu_transfer_in_ns", 100*time.Nanosecond)
	reg.Observe("atgpu_transfer_in_ns", 3*time.Microsecond)
	reg.Observe(Name("atgpud_job_duration_ns", Label{"kind", "run"}), 50*time.Millisecond)
	snap := reg.Snapshot()

	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exp, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round trip failed to parse:\n%s\nerror: %v", buf.String(), err)
	}

	// Every counter and gauge value survives the trip exactly.
	for series, want := range snap.Counters {
		got, ok := exp.Value(series)
		if !ok || got != float64(want) {
			t.Errorf("counter %s: got (%v, %v), want %d", series, got, ok, want)
		}
	}
	for series, want := range snap.Gauges {
		got, ok := exp.Value(series)
		if !ok || got != want {
			t.Errorf("gauge %s: got (%v, %v), want %v", series, got, ok, want)
		}
	}
	// Histogram count/sum survive per family.
	count, sum, ok := exp.HistogramTotal("atgpu_transfer_in_ns")
	if !ok || count != 2 || sum != float64((100*time.Nanosecond+3*time.Microsecond).Nanoseconds()) {
		t.Errorf("transfer_in histogram: count=%v sum=%v ok=%v", count, sum, ok)
	}
	if _, ok := exp.Value(Name("atgpud_job_duration_ns", Label{"kind", "run"}) + "_nonsense"); ok {
		t.Error("lookup of nonexistent series succeeded")
	}
	// Labeled histogram children carry their labels plus le.
	f := exp.Family("atgpud_job_duration_ns")
	if f == nil || f.Type != "histogram" {
		t.Fatalf("labeled histogram family missing: %+v", f)
	}
	sawLabeledBucket := false
	for _, s := range f.Samples {
		if strings.HasPrefix(s.Series, "atgpud_job_duration_ns_bucket{") {
			if s.Label("kind") != "run" || s.Label("le") == "" {
				t.Fatalf("bucket labels wrong: %+v", s)
			}
			sawLabeledBucket = true
		}
	}
	if !sawLabeledBucket {
		t.Fatal("no labeled bucket series found")
	}
	// Every family carries HELP and TYPE.
	for _, f := range exp.Families {
		if f.Help == "" || f.Type == "" {
			t.Errorf("family %s missing help or type: %+v", f.Name, f)
		}
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"sample before type", "foo 1\n"},
		{"bad metric name", "# TYPE 9foo counter\n9foo 1\n"},
		{"unknown type", "# TYPE foo widget\nfoo 1\n"},
		{"duplicate series", "# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"sample outside family", "# TYPE foo counter\nbar 1\n"},
		{"unterminated label", `# TYPE foo counter` + "\n" + `foo{a="x 1` + "\n"},
		{"bad escape", `# TYPE foo counter` + "\n" + `foo{a="\q"} 1` + "\n"},
		{"bad value", "# TYPE foo counter\nfoo abc\n"},
		{"colon in label", `# TYPE foo counter` + "\n" + `foo{a:b="x"} 1` + "\n"},
		{"help without type", "# HELP foo docs\nfoo 1\n"},
		{"bucket le out of order",
			"# TYPE h histogram\n" +
				`h_bucket{le="10"} 1` + "\n" + `h_bucket{le="5"} 2` + "\n" +
				`h_bucket{le="+Inf"} 2` + "\n" + "h_sum 3\nh_count 2\n"},
		{"non-cumulative buckets",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
				`h_bucket{le="+Inf"} 5` + "\n" + "h_sum 3\nh_count 5\n"},
		{"inf bucket disagrees with count",
			"# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 4` + "\n" + "h_sum 3\nh_count 5\n"},
		{"histogram missing sum",
			"# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 4` + "\n" + "h_count 4\n"},
	}
	for _, c := range cases {
		if _, err := ParsePrometheus(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: parser accepted malformed input:\n%s", c.name, c.in)
		}
	}
}

func TestParsePrometheusAccepts(t *testing.T) {
	in := "# random comment\n" +
		"# HELP up Whether the target is up.\n" +
		"# TYPE up gauge\n" +
		"up 1\n" +
		"\n" +
		"# TYPE reqs_total counter\n" +
		`reqs_total{code="200",route="/metrics"} 10 1700000000000` + "\n" +
		`reqs_total{code="404",route="/metrics"} 2` + "\n" +
		"# TYPE temp gauge\n" +
		"temp -3.5e-2\n" +
		"# TYPE odd gauge\n" +
		"odd NaN\n"
	exp, err := ParsePrometheus(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v, ok := exp.Value(`reqs_total{code="200",route="/metrics"}`); !ok || v != 10 {
		t.Fatalf("reqs 200 = %v, %v", v, ok)
	}
	if total, ok := exp.CounterTotal("reqs_total"); !ok || total != 12 {
		t.Fatalf("CounterTotal = %v, %v", total, ok)
	}
	if v, ok := exp.Value("temp"); !ok || v != -3.5e-2 {
		t.Fatalf("temp = %v, %v", v, ok)
	}
	if v, ok := exp.Value("odd"); !ok || !math.IsNaN(v) {
		t.Fatalf("odd = %v, %v", v, ok)
	}
	if got := exp.Family("up").Help; got != "Whether the target is up." {
		t.Fatalf("help = %q", got)
	}
}

func TestFamilyTypeConflict(t *testing.T) {
	reg := NewRegistry()
	reg.Add("fam", 1)
	reg.Set(Name("fam", Label{"k", "v"}), 2)
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err == nil {
		t.Fatal("WritePrometheus accepted a family used as both counter and gauge")
	}
}

func TestRegisterHelpAppearsInExposition(t *testing.T) {
	RegisterHelp("test_custom_total", "A test\nmetric.")
	reg := NewRegistry()
	reg.Add("test_custom_total", 1)
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# HELP test_custom_total A test metric.\n") {
		t.Fatalf("help missing or unflattened:\n%s", buf.String())
	}
}
