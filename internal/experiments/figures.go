package experiments

import (
	"fmt"

	"atgpu/internal/results"
	"atgpu/internal/stats"
)

// Figure is the data behind one paper figure panel: shared x, one or more
// named y series.
type Figure struct {
	// ID is the paper's label, e.g. "fig3a".
	ID string
	// Title describes the panel.
	Title string
	// XLabel names the x axis.
	XLabel string
	// Series holds the panel's curves.
	Series []stats.Series
}

func mustSeries(name string, x, y []float64) stats.Series {
	s, err := stats.NewSeries(name, x, y)
	if err != nil {
		// Series built from a WorkloadData sweep always have matched
		// lengths; reaching here is a programming error.
		panic(err)
	}
	return s
}

// Column accessors over the canonical record. Records built from bare
// test literals may carry no Predicted/Observed payload at all; a nil
// payload reads as zero, exactly like the zero-valued point fields the
// figures were originally built from.

func colATGPUCost(r results.Record) float64 {
	if r.Predicted == nil {
		return 0
	}
	return r.Predicted.ATGPUCost
}

func colSWGPUCost(r results.Record) float64 {
	if r.Predicted == nil {
		return 0
	}
	return r.Predicted.SWGPUCost
}

func colDeltaPredicted(r results.Record) float64 {
	if r.Predicted == nil {
		return 0
	}
	return r.Predicted.Delta
}

func colTotalTime(r results.Record) float64 {
	if r.Observed == nil {
		return 0
	}
	return r.Observed.TotalS
}

func colKernelTime(r results.Record) float64 {
	if r.Observed == nil {
		return 0
	}
	return r.Observed.KernelS
}

func colDeltaObserved(r results.Record) float64 {
	if r.Observed == nil {
		return 0
	}
	return r.Observed.Delta
}

// column is one named series of a panel: a record column over the sweep.
type column struct {
	name string
	get  func(results.Record) float64
}

// panelFigure builds a panel of cols against input size; title is
// formatted with the workload name.
func panelFigure(id, title string, d *WorkloadData, cols ...column) Figure {
	recs := d.records()
	x := results.Sizes(recs)
	f := Figure{ID: id, Title: fmt.Sprintf(title, d.Workload), XLabel: "n"}
	for _, c := range cols {
		f.Series = append(f.Series, mustSeries(c.name, x, results.Column(recs, c.get)))
	}
	return f
}

// PredictedFigure builds the "(a) Predicted results" panel: ATGPU vs SWGPU
// cost against input size (Figures 3a, 4a, 5a).
func PredictedFigure(id string, d *WorkloadData) Figure {
	return panelFigure(id, "%s: predicted cost (s)", d,
		column{"ATGPU", colATGPUCost}, column{"SWGPU", colSWGPUCost})
}

// ObservedFigure builds the "(b) Observed results" panel: total vs kernel
// simulated time (Figures 3b, 4b, 5b).
func ObservedFigure(id string, d *WorkloadData) Figure {
	return panelFigure(id, "%s: observed time (s)", d,
		column{"Total", colTotalTime}, column{"Kernel", colKernelTime})
}

// NormalisedFigure builds the "(c) Normalised results" panel: all four
// series rescaled to [0,1] (Figures 3c, 4c).
func NormalisedFigure(id string, d *WorkloadData) Figure {
	f := panelFigure(id, "%s: normalised cost/time (0→1)", d,
		column{"ATGPU", colATGPUCost}, column{"SWGPU", colSWGPUCost},
		column{"Total", colTotalTime}, column{"Kernel", colKernelTime})
	for i, s := range f.Series {
		f.Series[i] = s.Normalise()
	}
	return f
}

// DeltaFigure builds one Figure 6 panel: the predicted (Δ_T) and observed
// (Δ_E) proportions of time/cost allocated to data transfer.
func DeltaFigure(id string, d *WorkloadData) Figure {
	return panelFigure(id, "%s: transfer proportion Δ", d,
		column{"ΔE (Observed)", colDeltaObserved}, column{"ΔT (Predicted)", colDeltaPredicted})
}

// Figures expands a workload sweep into its paper panels, as its registry
// entry lists them: vecadd yields 3a/3b/3c and 6a; reduce 4a/4b/4c and 6b;
// matmul 5a/5b and 6c (the paper has no normalised matmul panel). Other
// workloads have none.
func Figures(d *WorkloadData) []Figure {
	w, err := Lookup(d.Workload)
	if err != nil {
		return nil
	}
	var figs []Figure
	for _, p := range w.panels {
		figs = append(figs, p.build(p.id, d))
	}
	return figs
}
