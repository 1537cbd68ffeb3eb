package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// catalog is the part of BENCHMARK.json the program reads: the workloads
// it must run and the metrics each mode must report, with their units.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadCatalog reads BENCHMARK.json and checks that it names exactly the
// workloads the program runs.
func loadCatalog(path string) (*catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s lists %d workloads, the program runs %d", path, len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("%s: workload %s is unknown to the program", path, w.Name)
		}
	}
	return &c, nil
}

// metrics returns the metrics a run must report: the end-to-end ones, or
// with trace set the per-layer ones.
func (c *catalog) metrics(trace bool) []metricDef {
	if trace {
		return c.PerLayer
	}
	return c.EndToEnd
}
