package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Metric naming scheme (see DESIGN.md "Observability"): every metric is
// atgpu_<layer>_<quantity>[_<unit>][_total]. Counters are int64 and end
// in _total; duration counters carry the _ns unit and count simulated
// nanoseconds exactly (no float folding, so merges are associative and
// snapshots byte-identical across worker counts). Gauges are float64
// set-once summaries. Histograms bucket simulated durations by powers
// of two of a nanosecond.
//
// Series may carry labels: a registry key is either a bare family name
// ("atgpu_host_launches_total") or a family plus a canonical label set
// composed by Name ("atgpud_jobs_total{kind=\"run\",state=\"success\"}").
// WritePrometheus groups series by family, emitting one # HELP/# TYPE
// header per family, so the exposition is accepted by real Prometheus
// scrapers unmodified.

// Label is one key/value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// Name composes the canonical series name for family with the given
// labels: family{k1="v1",k2="v2"} with keys sorted, family and keys
// sanitized to the Prometheus grammar, and values escaped. With no
// labels it returns the sanitized family alone. Equal (family, label
// set) pairs always compose to equal strings, so Add/Observe/Set on a
// composed name accumulate per series.
func Name(family string, labels ...Label) string {
	family = SanitizeMetricName(family)
	if len(labels) == 0 {
		return family
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(family)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(sanitizeLabelKey(l.Key))
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// SanitizeMetricName maps an arbitrary string onto the Prometheus
// metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*: every illegal byte
// becomes '_' and a leading digit gains a '_' prefix.
func SanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// sanitizeLabelKey maps a string onto the label-name grammar
// [a-zA-Z_][a-zA-Z0-9_]* (no colons, unlike metric names).
func sanitizeLabelKey(key string) string {
	if key == "" {
		return "_"
	}
	var sb strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// escapeLabelValue escapes a label value per the text exposition format:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// splitSeries cuts a registry key into its family and the brace-wrapped
// label suffix ("" when unlabeled; otherwise `k="v",...` without the
// braces).
func splitSeries(series string) (family, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], strings.TrimSuffix(series[i+1:], "}")
	}
	return series, ""
}

// helpMu guards the package help registry. Help text is exposition
// documentation, not snapshot state: it never participates in Merge or
// JSON, so registering help cannot change any byte-identity contract.
var (
	helpMu   sync.Mutex
	helpText = map[string]string{
		"atgpu_faults_corrupt_total":            "Injected transfer corruption faults.",
		"atgpu_faults_drop_total":               "Injected transfer drop faults.",
		"atgpu_faults_hang_total":               "Injected transfer hang faults.",
		"atgpu_faults_smfail_total":             "Injected SM failure faults.",
		"atgpu_faults_stall_total":              "Injected transfer stall faults.",
		"atgpu_host_compute_busy_ns_total":      "Simulated host compute resource busy time.",
		"atgpu_host_d2h_busy_ns_total":          "Simulated device-to-host link busy time.",
		"atgpu_host_h2d_busy_ns_total":          "Simulated host-to-device link busy time.",
		"atgpu_host_kernel_busy_ns_total":       "Simulated kernel resource busy time.",
		"atgpu_host_launches_total":             "Kernel launches on the simulated host.",
		"atgpu_host_overlap_saved_ns":           "Simulated time saved by stream overlap.",
		"atgpu_host_relaunches_total":           "Watchdog-driven kernel relaunches.",
		"atgpu_host_rounds_total":               "Host compute rounds.",
		"atgpu_host_sync_busy_ns_total":         "Simulated synchronization busy time.",
		"atgpu_host_total_ns":                   "End-to-end simulated run time.",
		"atgpu_host_transfer_fraction":          "Fraction of simulated run time spent transferring.",
		"atgpu_pipeline_saving_ratio":           "Observed pipelined-over-sequential saving ratio.",
		"atgpu_sweep_points_total":              "Sweep points executed.",
		"atgpu_transfer_backoff_ns_total":       "Simulated retry backoff time on the transfer engine.",
		"atgpu_transfer_in_ns":                  "Per-transfer simulated host-to-device durations.",
		"atgpu_transfer_in_ns_total":            "Total simulated host-to-device transfer time.",
		"atgpu_transfer_in_transactions_total":  "Host-to-device transactions.",
		"atgpu_transfer_in_words_total":         "Words transferred host-to-device.",
		"atgpu_transfer_out_ns":                 "Per-transfer simulated device-to-host durations.",
		"atgpu_transfer_out_ns_total":           "Total simulated device-to-host transfer time.",
		"atgpu_transfer_out_transactions_total": "Device-to-host transactions.",
		"atgpu_transfer_out_words_total":        "Words transferred device-to-host.",
		"atgpu_transfer_retries_total":          "Transfer retries after checksum mismatches.",
	}
)

// RegisterHelp records the # HELP text WritePrometheus emits for a
// metric family. Registering again overwrites; the text is trimmed to
// one line.
func RegisterHelp(family, help string) {
	helpMu.Lock()
	helpText[SanitizeMetricName(family)] = strings.ReplaceAll(strings.TrimSpace(help), "\n", " ")
	helpMu.Unlock()
}

// helpFor returns the registered help for a family, or a neutral
// fallback so every family still carries a # HELP line.
func helpFor(family string) string {
	helpMu.Lock()
	defer helpMu.Unlock()
	if h, ok := helpText[family]; ok && h != "" {
		return h
	}
	return "No help registered."
}

// histBuckets is the bucket count of duration histograms: bucket i
// counts observations v with 2^(i-1) ns < v ≤ 2^i − 1 ns (bucket 0
// counts v ≤ 0), which spans up to ~9.3 simulated seconds per
// transaction before the overflow bucket.
const histBuckets = 34

// Histogram is a power-of-two simulated-duration histogram.
type Histogram struct {
	// Count and Sum aggregate all observations (Sum in nanoseconds).
	Count, Sum int64
	// Buckets[i] counts observations with bits.Len64(ns) == i, i.e.
	// ns < 2^i; Overflow counts the rest.
	Buckets [histBuckets]int64
	// Overflow counts observations past the last bucket.
	Overflow int64
}

func (h *Histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	h.Count++
	h.Sum += ns
	idx := 0
	if ns > 0 {
		idx = bits.Len64(uint64(ns))
	}
	if idx >= histBuckets {
		h.Overflow++
		return
	}
	h.Buckets[idx]++
}

// merge folds other into h.
func (h *Histogram) merge(other Histogram) {
	h.Count += other.Count
	h.Sum += other.Sum
	h.Overflow += other.Overflow
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Registry accumulates named metrics. All methods are safe for
// concurrent use (the transfer engine records from under its own lock
// while the host records from the simulation goroutine) and nil-safe: a
// nil *Registry is the disabled state and every method is a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports whether the registry is collecting (non-nil).
func (m *Registry) Enabled() bool { return m != nil }

// Add increments the named counter by delta. No-op on a nil registry.
func (m *Registry) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// AddDuration increments a duration counter by d's simulated
// nanoseconds. No-op on a nil registry.
func (m *Registry) AddDuration(name string, d time.Duration) {
	m.Add(name, d.Nanoseconds())
}

// Set records the named gauge. No-op on a nil registry.
func (m *Registry) Set(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Observe records one duration observation into the named histogram.
// No-op on a nil registry.
func (m *Registry) Observe(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	h.observe(d)
	m.mu.Unlock()
}

// Snapshot copies the current state into an immutable value. A nil
// registry snapshots to the zero Snapshot.
func (m *Registry) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.counters) > 0 {
		s.Counters = make(map[string]int64, len(m.counters))
		for k, v := range m.counters {
			s.Counters[k] = v
		}
	}
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(m.gauges))
		for k, v := range m.gauges {
			s.Gauges[k] = v
		}
	}
	if len(m.hists) > 0 {
		s.Histograms = make(map[string]Histogram, len(m.hists))
		for k, v := range m.hists {
			s.Histograms[k] = *v
		}
	}
	return s
}

// Snapshot is a point-in-time copy of a registry, mergeable and
// serialisable. The zero value is an empty snapshot.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]float64   `json:"gauges,omitempty"`
	Histograms map[string]Histogram `json:"histograms,omitempty"`
}

// Empty reports whether the snapshot holds no metrics.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Merge folds other into s: counters and histograms add (associative
// and commutative, so any fold order of per-point snapshots yields
// identical totals); gauges overwrite, last writer wins, so merge in a
// deterministic order.
func (s *Snapshot) Merge(other Snapshot) {
	for k, v := range other.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]int64, len(other.Counters))
		}
		s.Counters[k] += v
	}
	for k, v := range other.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64, len(other.Gauges))
		}
		s.Gauges[k] = v
	}
	for k, v := range other.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]Histogram, len(other.Histograms))
		}
		h := s.Histograms[k]
		h.merge(v)
		s.Histograms[k] = h
	}
}

// WriteJSON emits the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys), so equal snapshots serialise to equal
// bytes.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Prometheus metric types, as the exposition's TYPE lines spell them.
const (
	promCounter   = "counter"
	promGauge     = "gauge"
	promHistogram = "histogram"
)

// promFamily gathers one family's series for exposition: its type and
// its member series keys in sorted order.
type promFamily struct {
	typ    string
	series []string
}

// families groups the snapshot's series by metric family, sanitizing
// family names, and returns the sorted family list. A family claimed by
// two different metric types is a programming error surfaced as one.
func (s Snapshot) families() (map[string]*promFamily, []string, error) {
	fams := make(map[string]*promFamily)
	var order []string
	note := func(series, typ string) error {
		fam, _ := splitSeries(series)
		fam = SanitizeMetricName(fam)
		f, ok := fams[fam]
		if !ok {
			f = &promFamily{typ: typ}
			fams[fam] = f
			order = append(order, fam)
		} else if f.typ != typ {
			return fmt.Errorf("obs: metric family %q used as both %s and %s", fam, f.typ, typ)
		}
		f.series = append(f.series, series)
		return nil
	}
	for _, k := range sortedKeys(s.Counters) {
		if err := note(k, promCounter); err != nil {
			return nil, nil, err
		}
	}
	for _, k := range sortedKeys(s.Gauges) {
		if err := note(k, promGauge); err != nil {
			return nil, nil, err
		}
	}
	for _, k := range sortedKeys(s.Histograms) {
		if err := note(k, promHistogram); err != nil {
			return nil, nil, err
		}
	}
	sort.Strings(order)
	return fams, order, nil
}

// promSeriesName rebuilds a series name with its family sanitized and an
// optional suffix spliced between family and labels ("_bucket", "_sum",
// "_count"), plus an optional extra label ("le") appended.
func promSeriesName(series, suffix, extraKey, extraVal string) string {
	fam, labels := splitSeries(series)
	fam = SanitizeMetricName(fam) + suffix
	if extraKey != "" {
		if labels != "" {
			labels += ","
		}
		labels += extraKey + `="` + extraVal + `"`
	}
	if labels == "" {
		return fam
	}
	return fam + "{" + labels + "}"
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format: one # HELP and # TYPE header per metric family (names
// sanitized, families sorted, series sorted within each family),
// histograms as cumulative _bucket/_sum/_count series with le bounds in
// nanoseconds. Real Prometheus scrapers accept the output unmodified —
// the contract pinned by the ParsePrometheus round-trip test.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	fams, order, err := s.families()
	if err != nil {
		return err
	}
	for _, fam := range order {
		f := fams[fam]
		sort.Strings(f.series)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam, helpFor(fam), fam, f.typ); err != nil {
			return err
		}
		for _, k := range f.series {
			switch f.typ {
			case promCounter:
				if _, err := fmt.Fprintf(w, "%s %d\n", promSeriesName(k, "", "", ""), s.Counters[k]); err != nil {
					return err
				}
			case promGauge:
				if _, err := fmt.Fprintf(w, "%s %s\n",
					promSeriesName(k, "", "", ""), strconv.FormatFloat(s.Gauges[k], 'g', -1, 64)); err != nil {
					return err
				}
			case promHistogram:
				h := s.Histograms[k]
				cum := int64(0)
				for i, c := range h.Buckets {
					cum += c
					// Bound 2^i − 1 ns: the largest value bucket i admits.
					bound := strconv.FormatInt((int64(1)<<i)-1, 10)
					if _, err := fmt.Fprintf(w, "%s %d\n", promSeriesName(k, "_bucket", "le", bound), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s %d\n%s %d\n%s %d\n",
					promSeriesName(k, "_bucket", "le", "+Inf"), h.Count,
					promSeriesName(k, "_sum", "", ""), h.Sum,
					promSeriesName(k, "_count", "", ""), h.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
