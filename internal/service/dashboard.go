package service

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Grafana dashboard generation. The dashboard is derived from the same
// metric-family constants the daemon exports, so a renamed family breaks
// the generator at compile time instead of silently blanking a panel.
// The output is plain Grafana dashboard JSON (schema v39, importable via
// "Dashboards → Import"); the only external assumption is a Prometheus
// datasource scraping GET /metrics.

// DashboardMetricFamilies lists every metric family the generated
// dashboard queries. `atgpu dash -check-metrics` verifies a live
// /metrics exposition serves each one.
func DashboardMetricFamilies() []string {
	return []string{
		MetricJobsTotal,
		MetricJobsInflight,
		MetricQueueDepth,
		MetricQueueCapacity,
		MetricQueueWaitNs,
		MetricJobDurationNs,
		MetricExecNs,
		MetricRejectedTotal,
		MetricCacheHitsTotal,
		MetricCacheMissesTotal,
		MetricHTTPTotal,
		MetricHTTPNs,
		MetricDraining,
		MetricDrainRemaining,
		MetricPointsTotal,
		MetricPointsInflight,
		MetricTraceRingEntries,
		MetricUptimeSeconds,
	}
}

// dashPanel is one Grafana panel; position is assigned by DashboardJSON.
type dashPanel struct {
	title   string
	kind    string // "timeseries" or "stat"
	unit    string // Grafana unit id ("ns", "reqps", "percentunit", "short", "s")
	queries []dashQuery
}

// dashQuery is one PromQL target on a panel.
type dashQuery struct {
	expr   string
	legend string
}

// histogram p-quantile over the power-of-two-ns buckets the daemon
// exports. The bounds are exact (2^i − 1 ns), so the interpolation error
// is at most one octave — good enough for an operational latency panel.
func quantile(q float64, family, by string) string {
	sel := fmt.Sprintf("rate(%s_bucket[$__rate_interval])", family)
	if by == "" {
		return fmt.Sprintf("histogram_quantile(%g, sum by (le) (%s))", q, sel)
	}
	return fmt.Sprintf("histogram_quantile(%g, sum by (le, %s) (%s))", q, by, sel)
}

// dashboardPanels defines the dashboard content in display order.
func dashboardPanels() []dashPanel {
	return []dashPanel{
		{
			title: "Job throughput", kind: "timeseries", unit: "reqps",
			queries: []dashQuery{{
				expr:   fmt.Sprintf("sum by (kind, state) (rate(%s[$__rate_interval]))", MetricJobsTotal),
				legend: "{{kind}} → {{state}}",
			}},
		},
		{
			title: "Jobs in flight", kind: "timeseries", unit: "short",
			queries: []dashQuery{
				{expr: MetricJobsInflight, legend: "jobs"},
				{expr: MetricPointsInflight, legend: "sweep points"},
			},
		},
		{
			title: "Queue depth", kind: "timeseries", unit: "short",
			queries: []dashQuery{
				{expr: MetricQueueDepth, legend: "depth"},
				{expr: MetricQueueCapacity, legend: "capacity"},
			},
		},
		{
			title: "Queue wait", kind: "timeseries", unit: "ns",
			queries: []dashQuery{
				{expr: quantile(0.5, MetricQueueWaitNs, ""), legend: "p50"},
				{expr: quantile(0.95, MetricQueueWaitNs, ""), legend: "p95"},
			},
		},
		{
			title: "Execute-phase latency by kind", kind: "timeseries", unit: "ns",
			queries: []dashQuery{
				{expr: quantile(0.95, MetricExecNs, "kind"), legend: "{{kind}} p95"},
			},
		},
		{
			title: "End-to-end job duration by kind", kind: "timeseries", unit: "ns",
			queries: []dashQuery{
				{expr: quantile(0.95, MetricJobDurationNs, "kind"), legend: "{{kind}} p95"},
			},
		},
		{
			title: "HTTP requests", kind: "timeseries", unit: "reqps",
			queries: []dashQuery{{
				expr:   fmt.Sprintf("sum by (route, code) (rate(%s[$__rate_interval]))", MetricHTTPTotal),
				legend: "{{route}} {{code}}",
			}},
		},
		{
			title: "HTTP latency by route", kind: "timeseries", unit: "ns",
			queries: []dashQuery{
				{expr: quantile(0.95, MetricHTTPNs, "route"), legend: "{{route}} p95"},
			},
		},
		{
			title: "Rejections", kind: "timeseries", unit: "reqps",
			queries: []dashQuery{{
				expr:   fmt.Sprintf("sum by (reason) (rate(%s[$__rate_interval]))", MetricRejectedTotal),
				legend: "{{reason}}",
			}},
		},
		{
			title: "Cache hit ratio", kind: "timeseries", unit: "percentunit",
			queries: []dashQuery{{
				expr: fmt.Sprintf(
					"rate(%[1]s[$__rate_interval]) / clamp_min(rate(%[1]s[$__rate_interval]) + rate(%[2]s[$__rate_interval]), 1)",
					MetricCacheHitsTotal, MetricCacheMissesTotal),
				legend: "hit ratio",
			}},
		},
		{
			title: "Drain", kind: "timeseries", unit: "short",
			queries: []dashQuery{
				{expr: MetricDraining, legend: "draining"},
				{expr: MetricDrainRemaining, legend: "jobs remaining"},
			},
		},
		{
			title: "Sweep points", kind: "timeseries", unit: "reqps",
			queries: []dashQuery{{
				expr:   fmt.Sprintf("sum by (outcome) (rate(%s[$__rate_interval]))", MetricPointsTotal),
				legend: "{{outcome}}",
			}},
		},
		{
			title: "Trace ring", kind: "stat", unit: "short",
			queries: []dashQuery{{expr: MetricTraceRingEntries, legend: "retained"}},
		},
		{
			title: "Uptime", kind: "stat", unit: "s",
			queries: []dashQuery{{expr: MetricUptimeSeconds, legend: "uptime"}},
		},
	}
}

// DashboardJSON renders the atgpud Grafana dashboard. datasource is the
// Prometheus datasource UID (Grafana resolves the literal string
// "${DS_PROMETHEUS}" through its import dialog, which is the useful
// default). Output is deterministic: same input, same bytes.
func DashboardJSON(datasource string) ([]byte, error) {
	if datasource == "" {
		datasource = "${DS_PROMETHEUS}"
	}
	ds := map[string]any{"type": "prometheus", "uid": datasource}

	const cols, panelW, panelH = 2, 12, 8
	var panels []map[string]any
	for i, p := range dashboardPanels() {
		var targets []map[string]any
		for j, q := range p.queries {
			targets = append(targets, map[string]any{
				"datasource":   ds,
				"expr":         q.expr,
				"legendFormat": q.legend,
				"refId":        string(rune('A' + j)),
			})
		}
		h := panelH
		if p.kind == "stat" {
			h = 4
		}
		panels = append(panels, map[string]any{
			"id":         i + 1,
			"type":       p.kind,
			"title":      p.title,
			"datasource": ds,
			"gridPos": map[string]any{
				"x": (i % cols) * panelW,
				"y": (i / cols) * panelH,
				"w": panelW,
				"h": h,
			},
			"fieldConfig": map[string]any{
				"defaults":  map[string]any{"unit": p.unit},
				"overrides": []any{},
			},
			"targets": targets,
		})
	}

	doc := map[string]any{
		"__inputs": []map[string]any{{
			"name":     "DS_PROMETHEUS",
			"label":    "Prometheus",
			"type":     "datasource",
			"pluginId": "prometheus",
		}},
		"title":         "atgpud — live telemetry",
		"uid":           "atgpud-telemetry",
		"tags":          []string{"atgpu", "simulation"},
		"timezone":      "browser",
		"schemaVersion": 39,
		"refresh":       "10s",
		"time":          map[string]any{"from": "now-30m", "to": "now"},
		"panels":        panels,
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
