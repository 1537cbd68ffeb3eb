package algorithms

import (
	"errors"
	"fmt"
	"testing"

	"atgpu/internal/core"
	"atgpu/internal/simgpu"
)

// tinyWidth is the Tiny device's warp width, which every plan here is
// declared for.
const tinyWidth = 4

// plan declares a split at the Tiny warp width and runs it in chunks
// chunks on streams streams.
func plan(t testing.TB, declare func(b int) (Split, error), chunks, streams int) Chunked {
	t.Helper()
	split, err := declare(tinyWidth)
	if err != nil {
		t.Fatalf("declare split: %v", err)
	}
	return Chunked{Split: split, Chunks: chunks, Streams: streams}
}

// runPlan runs p over in on a Tiny host sized to its footprint and
// returns the host, the output and the combined result.
func runPlan(t testing.TB, p Chunked, in ...[]Word) (*simgpu.Host, []Word, Word) {
	t.Helper()
	words, err := p.GlobalWords()
	if err != nil {
		t.Fatalf("%+v: GlobalWords: %v", p.Split.Name, err)
	}
	h := newTestHost(t, words+64)
	out := make([]Word, p.OutWords())
	combined, err := p.Run(h, out, in...)
	if err != nil {
		t.Fatalf("%s chunks=%d streams=%d: Run: %v", p.Name, p.Chunks, p.Streams, err)
	}
	return h, out, combined
}

// sameWords fails the test at the first entry where got and want differ.
func sameWords(t testing.TB, what string, got, want []Word) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// shape is one chunking of a plan table: size, chunks and streams.
type shape struct{ n, chunks, streams int }

func TestPipelinedVecAddCorrectness(t *testing.T) {
	for _, tc := range []shape{
		{100, 4, 2},
		{100, 4, 1},
		{100, 7, 3}, // uneven chunks, final partial
		{5, 8, 2},   // more chunks than elements
		{64, 1, 2},  // single chunk degenerates to one stream
		{33, 4, 8},  // more streams than chunks
	} {
		a, b := randWords(tc.n, 10), randWords(tc.n, 11)
		_, got, _ := runPlan(t, plan(t, VecAdd{N: tc.n}.Split, tc.chunks, tc.streams), a, b)
		want, err := VecAddReference(a, b)
		if err != nil {
			t.Fatal(err)
		}
		sameWords(t, fmt.Sprintf("%+v", tc), got, want)
	}
}

func TestPipelinedReduceCorrectness(t *testing.T) {
	for _, tc := range []shape{
		{256, 4, 2},
		{100, 4, 2}, // partial final chunk, non-pow2 chunk sizes
		{100, 3, 1},
		{7, 16, 2}, // one-element chunks
		{1, 4, 2},
	} {
		in := randWords(tc.n, 20)
		_, _, got := runPlan(t, plan(t, Reduce{N: tc.n}.Split, tc.chunks, tc.streams), in)
		if want := ReduceReference(in); got != want {
			t.Fatalf("%+v: sum = %d, want %d", tc, got, want)
		}
	}
}

func TestPipelinedMatMulCorrectness(t *testing.T) {
	for _, tc := range []shape{
		{16, 4, 2}, // 4 tile rows, one per band
		{16, 2, 2},
		{12, 2, 1}, // 3 tile rows in 2 bands: partial final band
		{8, 5, 2},  // more bands requested than tile rows
	} {
		a, b := randWords(tc.n*tc.n, 30), randWords(tc.n*tc.n, 31)
		_, got, _ := runPlan(t, plan(t, MatMul{N: tc.n}.Split, tc.chunks, tc.streams), a, b)
		want, err := MatMulReference(a, b, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		sameWords(t, fmt.Sprintf("%+v", tc), got, want)
	}
}

// planCase is one workload of the schedule tables: its split and inputs
// at a size where four chunks pipeline.
type planCase struct {
	name    string
	declare func(b int) (Split, error)
	in      [][]Word
	// inWords and outWords are the words the whole plan moves each way
	// in four chunks.
	inWords, outWords int
}

func planCases() []planCase {
	return []planCase{
		{"vecadd", VecAdd{N: 512}.Split, [][]Word{randWords(512, 40), randWords(512, 41)}, 2 * 512, 512},
		{"reduce", Reduce{N: 1024}.Split, [][]Word{randWords(1024, 42)}, 1024, 4},
		{"matmul", MatMul{N: 16}.Split, [][]Word{randWords(256, 43), randWords(256, 44)}, 2 * 256, 256},
	}
}

// TestPipelinedBeatsSequential: with four chunks, the multi-stream
// schedule finishes strictly earlier than the single-stream chunked
// baseline on identical inputs, with the same link and kernel busy time.
func TestPipelinedBeatsSequential(t *testing.T) {
	for _, tc := range planCases() {
		seq, _, _ := runPlan(t, plan(t, tc.declare, 4, 1), tc.in...)
		pipe, _, _ := runPlan(t, plan(t, tc.declare, 4, 2), tc.in...)
		if seq.OverlapSaved() != 0 {
			t.Fatalf("%s: single-stream run reports overlap %v", tc.name, seq.OverlapSaved())
		}
		if pipe.OverlapSaved() <= 0 {
			t.Fatalf("%s: multi-stream run reports no overlap", tc.name)
		}
		if pipe.TotalTime() >= seq.TotalTime() {
			t.Fatalf("%s: pipelined total %v not less than sequential %v",
				tc.name, pipe.TotalTime(), seq.TotalTime())
		}
		// Work content is identical; only the schedule differs.
		if pipe.KernelTime() != seq.KernelTime() {
			t.Fatalf("%s: kernel busy differs: %v vs %v", tc.name, pipe.KernelTime(), seq.KernelTime())
		}
		if pipe.TransferTime() != seq.TransferTime() {
			t.Fatalf("%s: link busy differs: %v vs %v", tc.name, pipe.TransferTime(), seq.TransferTime())
		}
	}
}

// TestPipelinedDeterministicReplay: identical inputs replay to identical
// overlapped schedules and identical makespans.
func TestPipelinedDeterministicReplay(t *testing.T) {
	for _, tc := range planCases() {
		h1, _, _ := runPlan(t, plan(t, tc.declare, 4, 2), tc.in...)
		h2, _, _ := runPlan(t, plan(t, tc.declare, 4, 2), tc.in...)
		a, b := h1.Timeline().Ops(), h2.Timeline().Ops()
		if len(a) != len(b) {
			t.Fatalf("%s: op counts differ: %d vs %d", tc.name, len(a), len(b))
		}
		for i := range a {
			if a[i].Start != b[i].Start || a[i].End != b[i].End || a[i].Resource != b[i].Resource {
				t.Fatalf("%s: op %d differs: %+v vs %+v", tc.name, i, a[i], b[i])
			}
		}
		if h1.TotalTime() != h2.TotalTime() {
			t.Fatalf("%s: makespans differ: %v vs %v", tc.name, h1.TotalTime(), h2.TotalTime())
		}
	}
}

// TestPipelinedAnalyzeConservation: the chunked accounts move the same
// words as the monolithic ones and predict a pipelined cost no worse than
// sequential via core.GPUCostPipelined.
func TestPipelinedAnalyzeConservation(t *testing.T) {
	p := core.Params{P: 64, B: tinyWidth, M: 64, G: 100000}
	cost := core.CostParams{
		Gamma: 1e6, Lambda: 4, Sigma: 1e-4,
		Alpha: 1e-5, Beta: 1e-6, KPrime: 2, H: 2,
	}
	for _, tc := range planCases() {
		a, err := plan(t, tc.declare, 4, 2).Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var in, out int
		for _, r := range a.Rounds {
			in += r.InWords
			out += r.OutWords
		}
		if in != tc.inWords || out != tc.outWords {
			t.Fatalf("%s words moved: in=%d out=%d, want %d/%d", tc.name, in, out, tc.inWords, tc.outWords)
		}
		pc, err := core.GPUCostPipelined(a, cost)
		if err != nil {
			t.Fatal(err)
		}
		if pc.Pipelined > pc.Sequential {
			t.Fatalf("%s: predicted pipelined %g worse than sequential %g", tc.name, pc.Pipelined, pc.Sequential)
		}
		if pc.Saving() <= 0 {
			t.Fatalf("%s: 4-chunk split predicts no overlap saving: %+v", tc.name, pc)
		}
	}
}

// TestPipelinedValidationErrors is the plan's validation table: every
// bad split, chunking or input fails with its sentinel — the size and
// chunking errors from GlobalWords, Analyze and Run alike. The
// out-of-core reduction's own cases are in TestOutOfCoreValidation and
// TestAnalyzeSerialValidation.
func TestPipelinedValidationErrors(t *testing.T) {
	vecadd := func(n int) func(int) (Split, error) { return VecAdd{N: n}.Split }
	for _, tc := range []struct {
		name            string
		declare         func(b int) (Split, error)
		chunks, streams int
		in              [][]Word
		// runOnly marks errors only Run can see.
		runOnly bool
		want    error
	}{
		{"n=0", vecadd(0), 4, 2, [][]Word{nil, nil}, false, ErrBadSize},
		{"chunks=0", vecadd(8), 0, 2, [][]Word{make([]Word, 8), make([]Word, 8)}, false, ErrBadSize},
		{"streams=0", vecadd(8), 2, 0, [][]Word{make([]Word, 8), make([]Word, 8)}, false, ErrBadSize},
		{"short input", vecadd(8), 2, 2, [][]Word{make([]Word, 7), make([]Word, 8)}, true, ErrBadShape},
		{"missing input", vecadd(8), 2, 2, [][]Word{make([]Word, 8)}, true, ErrBadShape},
		{"matmul n not a multiple of b", MatMul{N: 6}.Split, 2, 2, nil, false, ErrBadShape},
		{"matmul n=0", MatMul{N: 0}.Split, 2, 2, nil, false, ErrBadSize},
		{"reduce b not a power of two", func(int) (Split, error) { return Reduce{N: 8}.Split(3) }, 2, 2, nil, false, ErrNotPow2},
	} {
		split, err := tc.declare(tinyWidth)
		if err != nil {
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: declare: %v, want %v", tc.name, err, tc.want)
			}
			continue
		}
		p := Chunked{Split: split, Chunks: tc.chunks, Streams: tc.streams}
		words, gwErr := p.GlobalWords()
		_, anErr := p.Analyze(tinyParams(64))
		if !tc.runOnly && (!errors.Is(gwErr, tc.want) || !errors.Is(anErr, tc.want)) {
			t.Errorf("%s: GlobalWords: %v, Analyze: %v, want %v", tc.name, gwErr, anErr, tc.want)
		}
		h := newTestHost(t, words+64)
		if _, err := p.Run(h, make([]Word, p.OutWords()), tc.in...); !errors.Is(err, tc.want) {
			t.Errorf("%s: Run: %v, want %v", tc.name, err, tc.want)
		}
	}
}
