package experiments

import (
	"fmt"
	"slices"
	"strings"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/core"
	"atgpu/internal/kernel"
	"atgpu/internal/mem"
	"atgpu/internal/simgpu"
)

// Workload is one entry of the workload registry: everything the sweep
// runners, the model-only predictor, the lint/cache-key path, the paper
// figures and atgpud know about a workload. They all look names up here
// instead of switching on them, so adding a workload means adding one
// entry to registry.
//
// Every entry goes through the paper's §IV procedure unchanged: price
// Expression (2) and SWGPU on the analysis, run the workload on the
// simulated device, compare Δ_T with Δ_E.
type Workload struct {
	// Name keys the registry, tags the workload's records and seeds its
	// points' input streams (see derivedSeed).
	Name string

	// sizes and fullSizes are the default and Config.Full sweep ladders;
	// override selects the Config.Sizes* field that replaces both when
	// non-nil.
	sizes, fullSizes []int
	override         func(c *Config) *[]int

	// model is the size-n instance the model prices, and footprint the
	// global memory a size-n point allocates, in words (b is the warp
	// width).
	model     func(n int) model
	footprint func(n, b int) int
	// inputWords is the length of each input vector a size-n point
	// draws; nil means n.
	inputWords func(n int) int

	// observe draws a point's inputs into s from its seeded stream, runs
	// the workload on h and verifies its output. Errors come back
	// unprefixed; the sweep names the workload and size.
	observe func(h *simgpu.Host, n int, s *pointScratch) error

	// kernel is the first program a size-n run launches, with the run's
	// buffer layout, on model(n).Blocks(b) blocks: what `atgpu lint` and
	// atgpud analyse, and the kernel component of atgpud's cache key.
	kernel func(n, b int) (*kernel.Program, error)

	// pipelined is the chunked multi-stream variant, nil when there is
	// none.
	pipelined *pipelinedVariant

	// panels are the paper figure panels a sweep of the workload expands
	// into (see Figures).
	panels []panel
}

// model is what pricing a workload needs: the launch width the
// perfect-GPU instance is sized for, and the per-round analysis on it.
type model interface {
	Blocks(b int) int
	Analyze(p core.Params) (*core.Analysis, error)
}

// pipelinedVariant is a workload's chunked schedule, run sequentially on
// one stream and overlapped on pipelineStreams (see SweepPipelined).
type pipelinedVariant struct {
	// blocks is the model launch width of a chunks-way split; plan is the
	// split on a stream count, which prices and sizes it.
	blocks func(n, chunks, b int) int
	plan   func(n, chunks, streams int) pipelinedPlan
	// prepare draws a point's inputs into s once and returns the run both
	// schedules execute on them, verification included. Both runs read
	// the same inputs, so their results never land in an input buffer.
	prepare func(n int, s *pointScratch) func(h *simgpu.Host, chunks, streams int) error
}

// pipelinedPlan is a chunked schedule's model and footprint.
type pipelinedPlan interface {
	Analyze(p core.Params) (*core.Analysis, error)
	GlobalWords(b int) (int, error)
}

// panel is one paper figure panel: its ID and builder.
type panel struct {
	id    string
	build func(id string, d *WorkloadData) Figure
}

// registry lists every workload, in the order CLIs present them.
var registry = []*Workload{
	{
		// Paper §IV-A: n = 1e6 … 1e7, scaled 10× down by default.
		Name:      "vecadd",
		sizes:     steps(100_000, 10),
		fullSizes: steps(1_000_000, 10),
		override:  func(c *Config) *[]int { return &c.SizesVecAdd },
		model:     func(n int) model { return algorithms.VecAdd{N: n} },
		footprint: func(n, _ int) int { return algorithms.VecAdd{N: n}.GlobalWords() },
		// The result lands in a: spent once both inputs are on the device.
		observe: func(h *simgpu.Host, n int, s *pointScratch) error {
			a, b := s.words(0, n), s.words(1, n)
			return ran(algorithms.VecAdd{N: n}.RunInto(h, a, b, a))
		},
		kernel: func(n, b int) (*kernel.Program, error) {
			m := alignUp(n, b)
			return algorithms.VecAdd{N: n}.Kernel(b, 0, m, 2*m)
		},
		pipelined: &pipelinedVariant{
			blocks: chunkBlocks,
			plan: func(n, chunks, streams int) pipelinedPlan {
				return algorithms.PipelinedVecAdd{N: n, Chunks: chunks, Streams: streams}
			},
			prepare: func(n int, s *pointScratch) func(*simgpu.Host, int, int) error {
				a, b := s.words(0, n), s.words(1, n)
				return func(h *simgpu.Host, chunks, streams int) error {
					_, err := algorithms.PipelinedVecAdd{N: n, Chunks: chunks, Streams: streams}.Run(h, a, b)
					return err
				}
			},
		},
		panels: []panel{{"fig3a", PredictedFigure}, {"fig3b", ObservedFigure},
			{"fig3c", NormalisedFigure}, {"fig6a", DeltaFigure}},
	},
	{
		// Paper §IV-B: n = 2^16 … 2^26, up to 2^22 by default.
		Name:      "reduce",
		sizes:     pow2s(16, 22, 1),
		fullSizes: pow2s(16, 26, 1),
		override:  func(c *Config) *[]int { return &c.SizesReduce },
		// The perfect-GPU instance needs a multiprocessor per block of
		// the largest round.
		model:     func(n int) model { return algorithms.Reduce{N: n} },
		footprint: func(n, b int) int { return algorithms.Reduce{N: n}.GlobalWords(b) },
		observe: func(h *simgpu.Host, n int, s *pointScratch) error {
			in := s.bits(0, n)
			got, err := algorithms.Reduce{N: n}.Run(h, in)
			if err != nil {
				return fmt.Errorf("run: %w", err)
			}
			return sameWord(got, algorithms.ReduceReference(in))
		},
		// The first — largest — round; later rounds run the same kernel
		// on fewer blocks.
		kernel: func(n, b int) (*kernel.Program, error) {
			return algorithms.Reduce{N: n}.Kernel(b, 0, alignUp(n, b), n)
		},
		pipelined: &pipelinedVariant{
			blocks: chunkBlocks,
			plan: func(n, chunks, streams int) pipelinedPlan {
				return algorithms.PipelinedReduce{N: n, Chunks: chunks, Streams: streams}
			},
			prepare: func(n int, s *pointScratch) func(*simgpu.Host, int, int) error {
				in := s.bits(0, n)
				want := algorithms.ReduceReference(in)
				return func(h *simgpu.Host, chunks, streams int) error {
					got, err := algorithms.PipelinedReduce{N: n, Chunks: chunks, Streams: streams}.Run(h, in)
					if err != nil {
						return err
					}
					return sameWord(got, want)
				}
			},
		},
		panels: []panel{{"fig4a", PredictedFigure}, {"fig4b", ObservedFigure},
			{"fig4c", NormalisedFigure}, {"fig6b", DeltaFigure}},
	},
	{
		// Paper §IV-C: n = 32, 64, …, 1024, up to 256 by default.
		Name:       "matmul",
		sizes:      pow2s(5, 8, 1),
		fullSizes:  pow2s(5, 10, 1),
		override:   func(c *Config) *[]int { return &c.SizesMatMul },
		model:      func(n int) model { return algorithms.MatMul{N: n} },
		footprint:  func(n, _ int) int { return algorithms.MatMul{N: n}.GlobalWords() },
		inputWords: func(n int) int { return n * n },
		// The result lands in a, as vecadd's does.
		observe: func(h *simgpu.Host, n int, s *pointScratch) error {
			a, b := s.words(0, n*n), s.words(1, n*n)
			return ran(algorithms.MatMul{N: n}.RunInto(h, a, b, a))
		},
		kernel: func(n, b int) (*kernel.Program, error) {
			if n%b != 0 {
				return nil, fmt.Errorf("matmul n=%d must be a multiple of warp width %d", n, b)
			}
			return algorithms.MatMul{N: n}.Kernel(b, 0, n*n, 2*n*n)
		},
		pipelined: &pipelinedVariant{
			// The widest band launches bandTiles·(n/b) blocks.
			blocks: func(n, chunks, b int) int {
				tiles := n / b
				bands := max(min(chunks, tiles), 1)
				return ceilDiv(tiles, bands) * tiles
			},
			plan: func(n, chunks, streams int) pipelinedPlan {
				return algorithms.PipelinedMatMul{N: n, Chunks: chunks, Streams: streams}
			},
			prepare: func(n int, s *pointScratch) func(*simgpu.Host, int, int) error {
				a, b := s.words(0, n*n), s.words(1, n*n)
				return func(h *simgpu.Host, chunks, streams int) error {
					_, err := algorithms.PipelinedMatMul{N: n, Chunks: chunks, Streams: streams}.Run(h, a, b)
					return err
				}
			},
		},
		panels: []panel{{"fig5a", PredictedFigure}, {"fig5b", ObservedFigure}, {"fig6c", DeltaFigure}},
	},
	{
		// The prefix sum of the paper's future work (§V: "further
		// experiments on other computational problems"). It shares the
		// reduce size override; its inputs are deterministic.
		Name:      "scan",
		sizes:     pow2s(14, 20, 2),
		fullSizes: pow2s(14, 24, 2),
		override:  func(c *Config) *[]int { return &c.SizesReduce },
		model:     func(n int) model { return algorithms.Scan{N: n} },
		footprint: func(n, b int) int { return algorithms.Scan{N: n}.GlobalWords(b) },
		observe: func(h *simgpu.Host, n int, _ *pointScratch) error {
			in := make([]algorithms.Word, n)
			for i := range in {
				in[i] = algorithms.Word(i%3 - 1)
			}
			got, err := algorithms.Scan{N: n}.Run(h, in)
			if err != nil {
				return fmt.Errorf("run: %w", err)
			}
			// Spot-check the tail against the reference reduction.
			if got[n-1] != algorithms.ReduceReference(in) {
				return algorithms.ErrVerifyFail
			}
			return nil
		},
		// The first level: data at 0, block sums after it.
		kernel: func(n, b int) (*kernel.Program, error) {
			return algorithms.Scan{N: n}.Kernel(b, 0, alignUp(n, b), n)
		},
	},
	histogramWorkload("histogram", false),
	histogramWorkload("histogram-priv", true),
	{
		// Stream compaction. The survivor order is schedule-dependent,
		// so verification compares sorted multisets.
		Name:      "compact",
		sizes:     atomicSizes,
		fullSizes: atomicFullSizes,
		override:  func(c *Config) *[]int { return &c.SizesCompact },
		model:     func(n int) model { return algorithms.Compact{N: n} },
		footprint: func(n, _ int) int { return algorithms.Compact{N: n}.GlobalWords() },
		observe: func(h *simgpu.Host, n int, s *pointScratch) error {
			// Roughly half the elements survive: draw from [-1000,1000]
			// and zero every third, as the smoke tests do.
			in := s.words(0, n)
			for i := 0; i < n; i += 3 {
				in[i] = 0
			}
			got, err := algorithms.Compact{N: n}.Run(h, in)
			if err != nil {
				return fmt.Errorf("run: %w", err)
			}
			if want := algorithms.CompactReference(in); !equalMultiset(got, want) {
				return fmt.Errorf("%w: %d survivors, want %d", algorithms.ErrVerifyFail, len(got), len(want))
			}
			return nil
		},
		kernel: func(n, b int) (*kernel.Program, error) {
			m := alignUp(n, b)
			return algorithms.Compact{N: n}.Kernel(b, 0, m, 2*m)
		},
	},
	{
		// The atomic-max top-k cascade.
		Name:      "topk",
		sizes:     atomicSizes,
		fullSizes: atomicFullSizes,
		override:  func(c *Config) *[]int { return &c.SizesTopK },
		model:     func(n int) model { return algorithms.TopK{N: n, K: TopKSweepK} },
		footprint: func(n, _ int) int { return algorithms.TopK{N: n, K: TopKSweepK}.GlobalWords() },
		observe: func(h *simgpu.Host, n int, s *pointScratch) error {
			in := s.words(0, n)
			got, err := algorithms.TopK{N: n, K: TopKSweepK}.Run(h, in)
			if err != nil {
				return fmt.Errorf("run: %w", err)
			}
			want, err := algorithms.TopKReference(in, TopKSweepK)
			if err != nil {
				return err
			}
			if !equalMultiset(got, want) {
				return fmt.Errorf("%w: slots %v want %v", algorithms.ErrVerifyFail, got, want)
			}
			return nil
		},
		kernel: func(n, b int) (*kernel.Program, error) {
			return algorithms.TopK{N: n, K: TopKSweepK}.Kernel(b, 0, alignUp(n, b))
		},
	},
	{
		// The warp-replicated Monte Carlo estimator; n counts threads,
		// each running MonteCarloTrials draws, so the ladder is an order
		// smaller than the memory-bound workloads'.
		Name:      "montecarlo",
		sizes:     pow2s(8, 12, 2),
		fullSizes: pow2s(12, 18, 2),
		override:  func(c *Config) *[]int { return &c.SizesMonteCarlo },
		model:     func(n int) model { return algorithms.MonteCarlo{N: n, Trials: MonteCarloTrials} },
		footprint: func(n, _ int) int { return algorithms.MonteCarlo{N: n, Trials: MonteCarloTrials}.GlobalWords() },
		observe: func(h *simgpu.Host, n int, _ *pointScratch) error {
			alg := algorithms.MonteCarlo{N: n, Trials: MonteCarloTrials}
			got, err := alg.Run(h)
			if err != nil {
				return fmt.Errorf("run: %w", err)
			}
			want, err := alg.MonteCarloReference()
			if err != nil {
				return err
			}
			return sameWord(got, want)
		},
		kernel: func(n, b int) (*kernel.Program, error) {
			return algorithms.MonteCarlo{N: n, Trials: MonteCarloTrials}.Kernel(b, 0)
		},
	},
}

// histogramWorkload is the shared-counter histogram (privatized=false,
// whose atomic serialisation the contention model prices) or its
// per-block privatized twin, over HistogramSweepBins buckets.
func histogramWorkload(name string, privatized bool) *Workload {
	alg := func(n int) algorithms.Histogram {
		return algorithms.Histogram{N: n, Bins: HistogramSweepBins, Privatized: privatized}
	}
	return &Workload{
		Name:      name,
		sizes:     atomicSizes,
		fullSizes: atomicFullSizes,
		override:  func(c *Config) *[]int { return &c.SizesHistogram },
		model:     func(n int) model { return alg(n) },
		footprint: func(n, _ int) int { return alg(n).GlobalWords() },
		observe: func(h *simgpu.Host, n int, s *pointScratch) error {
			in := s.nonNeg(0, n)
			got, err := alg(n).Run(h, in)
			if err != nil {
				return fmt.Errorf("run: %w", err)
			}
			want, err := algorithms.HistogramReference(in, HistogramSweepBins)
			if err != nil {
				return err
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("%w: bin %d got %d want %d",
						algorithms.ErrVerifyFail, i, got[i], want[i])
				}
			}
			return nil
		},
		kernel: func(n, b int) (*kernel.Program, error) {
			return alg(n).Kernel(b, 0, alignUp(n, b))
		},
	}
}

// Fixed shape parameters of the atomic-workload sweeps. They are part of
// each sweep's identity (the cache key hashes the kernel they produce), so
// changing them is a results-format change.
const (
	// HistogramSweepBins is the bucket count of the histogram sweeps.
	HistogramSweepBins = 32
	// TopKSweepK is the slot count of the top-k sweep.
	TopKSweepK = 8
	// MonteCarloTrials is the per-thread draw count of the Monte Carlo
	// sweep.
	MonteCarloTrials = 64
)

// The atomic workloads' shared ladder: doublings from 2^10, three octaves
// further in Full mode.
var (
	atomicSizes     = pow2s(10, 16, 2)
	atomicFullSizes = pow2s(10, 22, 2)
)

// Workloads returns the registry, in presentation order.
func Workloads() []*Workload { return registry }

// Names lists the registered workload names, in presentation order.
func Names() []string {
	names := make([]string, len(registry))
	for i, w := range registry {
		names[i] = w.Name
	}
	return names
}

// Lookup finds a workload by name.
func Lookup(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown workload %q (want %s)", name, strings.Join(Names(), ", "))
}

// sweepInputWords is the longest input vector a sweep of the workload
// over sizes draws.
func (w *Workload) sweepInputWords(sizes []int) int {
	words := 0
	for _, n := range sizes {
		if w.inputWords != nil {
			n = w.inputWords(n)
		}
		words = max(words, n)
	}
	return words
}

// Pipelined reports whether the workload has a chunked multi-stream
// variant (see Runner.SweepPipelined).
func (w *Workload) Pipelined() bool { return w.pipelined != nil }

// Panels lists the IDs of the paper figure panels a sweep of the
// workload expands into (none for workloads outside the paper).
func (w *Workload) Panels() []string {
	ids := make([]string, len(w.panels))
	for i, p := range w.panels {
		ids[i] = p.id
	}
	return ids
}

// Analyze builds the workload's per-round model analysis for size n on
// the perfect-GPU instance of dev's geometry — the launch geometry the
// observed runs use.
func (w *Workload) Analyze(n int, dev simgpu.Config) (*core.Analysis, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: %s: non-positive size %d", w.Name, n)
	}
	m := w.model(n)
	return m.Analyze(modelParams(dev, m.Blocks(dev.WarpWidth)))
}

// AnalyzePipelined builds the chunked variant's analysis for size n split
// chunks ways on the perfect-GPU instance of dev's geometry, sized for the
// widest chunk's launch.
func (w *Workload) AnalyzePipelined(n, chunks int, dev simgpu.Config) (*core.Analysis, error) {
	pv := w.pipelined
	if pv == nil {
		return nil, fmt.Errorf("experiments: %s has no pipelined variant", w.Name)
	}
	p := modelParams(dev, pv.blocks(n, chunks, dev.WarpWidth))
	return pv.plan(n, chunks, pipelineStreams).Analyze(p)
}

// Kernel builds the first program a size-n run launches at warp width b,
// with its block count and the run's buffer layout.
func (w *Workload) Kernel(n, b int) (*kernel.Program, int, error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("non-positive n %d", n)
	}
	prog, err := w.kernel(n, b)
	return prog, w.model(n).Blocks(b), err
}

// Lint statically analyses the workload's size-n kernel (see Kernel) on
// dev without running it, pricing it with cp.
func (w *Workload) Lint(n int, dev simgpu.Config, cp core.CostParams) (*analyze.Report, error) {
	prog, blocks, err := w.Kernel(n, dev.WarpWidth)
	if err != nil {
		return nil, err
	}
	return analyze.Program(prog, analyze.Options{Machine: analyze.FromConfig(dev), Blocks: blocks, Cost: &cp})
}

// sweepSizes resolves the workload's sizes under c: the override when
// set, otherwise the Full or default ladder.
func (w *Workload) sweepSizes(c Config) []int {
	if s := *w.override(&c); s != nil {
		return s
	}
	if c.Full {
		return slices.Clone(w.fullSizes)
	}
	return slices.Clone(w.sizes)
}

// SweepSizes returns the effective sweep sizes for a workload under this
// config: the explicit override when set, otherwise the paper's exact
// sizes in Full mode or the scaled-down defaults. The atgpud service uses
// this to pin a request's sizes before computing its cache key.
func (c Config) SweepSizes(workload string) ([]int, error) {
	w, err := Lookup(workload)
	if err != nil {
		return nil, err
	}
	return w.sweepSizes(c), nil
}

// SetSweepSizes sets the Config.Sizes* override the workload reads.
func (c *Config) SetSweepSizes(workload string, sizes []int) error {
	w, err := Lookup(workload)
	if err != nil {
		return err
	}
	*w.override(c) = sizes
	return nil
}

// steps returns k sizes step, 2·step, …, k·step.
func steps(step, k int) []int {
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = (i + 1) * step
	}
	return sizes
}

// pow2s returns 2^lo, 2^(lo+stride), … up to 2^hi.
func pow2s(lo, hi, stride int) []int {
	var sizes []int
	for e := lo; e <= hi; e += stride {
		sizes = append(sizes, 1<<e)
	}
	return sizes
}

func ceilDiv(n, b int) int { return (n + b - 1) / b }

// alignUp rounds n up to a multiple of b: where Host.Malloc places the
// buffer after an n-word one.
func alignUp(n, b int) int { return ceilDiv(n, b) * b }

// chunkBlocks is the launch width of one chunk of a chunks-way split.
func chunkBlocks(n, chunks, b int) int { return ceilDiv(ceilDiv(n, chunks), b) }

// ran marks a run's error as a run failure.
func ran(err error) error {
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	return nil
}

// sameWord verifies a scalar result.
func sameWord(got, want mem.Word) error {
	if got != want {
		return fmt.Errorf("%w: got %d want %d", algorithms.ErrVerifyFail, got, want)
	}
	return nil
}

// equalMultiset compares two word slices as multisets.
func equalMultiset(a, b []mem.Word) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
