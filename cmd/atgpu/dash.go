package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"atgpu/internal/obs"
	"atgpu/internal/service"
)

// alwaysExported lists the dashboard families atgpud serves on every
// scrape regardless of traffic (live gauges and absolute cache
// counters). The rest appear once the corresponding event has happened.
var alwaysExported = map[string]bool{
	service.MetricJobsInflight:     true,
	service.MetricQueueDepth:       true,
	service.MetricQueueCapacity:    true,
	service.MetricCacheHitsTotal:   true,
	service.MetricCacheMissesTotal: true,
	service.MetricDraining:         true,
	service.MetricDrainRemaining:   true,
	service.MetricPointsInflight:   true,
	service.MetricTraceRingEntries: true,
	service.MetricUptimeSeconds:    true,
}

// dashCmd generates the Grafana dashboard for a running atgpud and
// (optionally) verifies it against a live /metrics endpoint:
//
//	atgpu dash [-o dashboard.json] [-datasource UID]
//	           [-check-metrics http://localhost:8080/metrics] [-strict]
//
// The dashboard JSON is importable via Grafana's "Dashboards → Import";
// by default it declares a Prometheus datasource input so the importer
// prompts for one. With -check-metrics the command scrapes the given
// URL, validates the exposition with the repo's strict parser, and checks
// that the families the dashboard queries are served. Families that only
// materialise with traffic (histograms, transition counters) are
// reported but only fail the check under -strict; families the daemon
// exports unconditionally must always be present.
func dashCmd(args []string) error {
	fs := flag.NewFlagSet("dash", flag.ExitOnError)
	out := fs.String("o", "", "write the dashboard JSON here (default stdout)")
	datasource := fs.String("datasource", "", "Prometheus datasource UID (default: prompt on import)")
	check := fs.String("check-metrics", "", "scrape this /metrics URL and verify the dashboard's families")
	strict := fs.Bool("strict", false, "with -check-metrics: fail on any missing family, even traffic-dependent ones")
	if err := fs.Parse(args); err != nil {
		return err
	}

	doc, err := service.DashboardJSON(*datasource)
	if err != nil {
		return err
	}
	if *out == "" {
		if _, err := os.Stdout.Write(doc); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "atgpu: dash: wrote %s (%d bytes, %d families)\n",
			*out, len(doc), len(service.DashboardMetricFamilies()))
	}
	if *check == "" {
		return nil
	}
	return checkMetrics(*check, *strict)
}

// checkMetrics scrapes url, parses it with the strict exposition parser,
// and verifies the dashboard's metric families are served.
func checkMetrics(url string, strict bool) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: status %s", url, resp.Status)
	}
	exp, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return fmt.Errorf("exposition invalid: %w", err)
	}

	var missing, pending []string
	for _, family := range service.DashboardMetricFamilies() {
		if exp.Family(family) != nil {
			continue
		}
		if alwaysExported[family] {
			missing = append(missing, family)
		} else {
			pending = append(pending, family)
		}
	}
	sort.Strings(missing)
	sort.Strings(pending)
	for _, f := range pending {
		fmt.Fprintf(os.Stderr, "atgpu: dash: family %s not yet exported (needs traffic)\n", f)
	}
	if len(missing) > 0 {
		return fmt.Errorf("families missing from %s: %v", url, missing)
	}
	if strict && len(pending) > 0 {
		return fmt.Errorf("families awaiting traffic (strict): %v", pending)
	}
	fmt.Fprintf(os.Stderr, "atgpu: dash: %s serves %d families, %d dashboard families verified\n",
		url, len(exp.Families), len(service.DashboardMetricFamilies())-len(pending))
	return nil
}
