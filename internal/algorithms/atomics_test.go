package algorithms

import (
	"sort"
	"testing"

	"atgpu/internal/core"
	"atgpu/internal/simgpu"
)

// sortedCopy returns a sorted copy for multiset comparisons of workloads
// whose output order is schedule-dependent.
func sortedCopy(w []Word) []Word {
	s := make([]Word, len(w))
	copy(s, w)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func equalWords(a, b []Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nonNegWords returns deterministic pseudo-random non-negative inputs.
func nonNegWords(n int, seed int64) []Word {
	w := randWords(n, seed)
	for i := range w {
		if w[i] < 0 {
			w[i] = -w[i]
		}
	}
	return w
}

func TestHistogramSmoke(t *testing.T) {
	for _, priv := range []bool{false, true} {
		for _, tc := range []struct{ n, bins int }{
			{1, 1}, {4, 2}, {5, 3}, {16, 7}, {33, 8}, {100, 5}, {64, 1},
		} {
			hg := Histogram{N: tc.n, Bins: tc.bins, Privatized: priv}
			h := newTestHost(t, hg.GlobalWords()+64)
			in := nonNegWords(tc.n, int64(tc.n+tc.bins))
			got, err := hg.Run(h, in)
			if err != nil {
				t.Fatalf("%s n=%d bins=%d: Run: %v", hg.Name(), tc.n, tc.bins, err)
			}
			want, err := HistogramReference(in, tc.bins)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !equalWords(got, want) {
				t.Fatalf("%s n=%d bins=%d: got %v want %v", hg.Name(), tc.n, tc.bins, got, want)
			}
		}
	}
}

// TestHistogramContentionStats pins the contention counters: a fully skewed
// input (every value in one bin) serialises all active lanes of each warp,
// while the privatized kernel's binning phase stays conflict-free.
func TestHistogramContentionStats(t *testing.T) {
	const n, bins = 64, 8
	skew := make([]Word, n)
	for i := range skew {
		skew[i] = 3 // every element lands in bin 3
	}

	hg := Histogram{N: n, Bins: bins}
	h := newTestHost(t, hg.GlobalWords()+64)
	width := h.Device().Config().WarpWidth
	if _, err := hg.Run(h, skew); err != nil {
		t.Fatalf("contended Run: %v", err)
	}
	st := h.KernelStats()
	if st.AtomicAccesses == 0 {
		t.Fatalf("contended: no atomic accesses recorded: %+v", st)
	}
	if st.MaxAtomicDegree != width {
		t.Errorf("contended: MaxAtomicDegree = %d, want %d (fully skewed warp)",
			st.MaxAtomicDegree, width)
	}
	if st.AtomicSerialisations == 0 {
		t.Errorf("contended: no serialisations on a fully skewed input: %+v", st)
	}

	hp := Histogram{N: n, Bins: bins, Privatized: true}
	h2 := newTestHost(t, hp.GlobalWords()+64)
	if _, err := hp.Run(h2, skew); err != nil {
		t.Fatalf("privatized Run: %v", err)
	}
	st2 := h2.KernelStats()
	if st2.AtomicAccesses == 0 {
		t.Fatalf("privatized: no atomic accesses recorded: %+v", st2)
	}
	// The shared-phase updates are conflict-free by layout; only the global
	// flush may serialise across lanes, and it targets distinct bins, so the
	// shared-atomic degree must be 1. Serialisation therefore must be strictly
	// lower than the contended twin's.
	if st2.AtomicSerialisations >= st.AtomicSerialisations {
		t.Errorf("privatized serialisations %d not below contended %d",
			st2.AtomicSerialisations, st.AtomicSerialisations)
	}
	// The observed contention factor 1 + Ser/Acc must be strictly lower for
	// the privatized kernel. (Wall clock need not be: at Tiny's warp width
	// the privatization overhead outweighs the 4-way serialisation it
	// removes, which is exactly the trade-off the cost model exposes.)
	factor := func(s simgpu.KernelStats) float64 {
		return 1 + float64(s.AtomicSerialisations)/float64(s.AtomicAccesses)
	}
	if factor(st2) >= factor(st) {
		t.Errorf("privatized contention factor %.3f not below contended %.3f",
			factor(st2), factor(st))
	}
}

func TestCompactSmoke(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 16, 33, 100} {
		c := Compact{N: n}
		h := newTestHost(t, c.GlobalWords()+64)
		in := randWords(n, int64(n))
		// Force some zeros so both branches of the keep test are exercised.
		for i := 0; i < n; i += 3 {
			in[i] = 0
		}
		got, err := c.Run(h, in)
		if err != nil {
			t.Fatalf("n=%d: Run: %v", n, err)
		}
		want := CompactReference(in)
		if !equalWords(sortedCopy(got), sortedCopy(want)) {
			t.Fatalf("n=%d: got multiset %v want %v", n, sortedCopy(got), sortedCopy(want))
		}
	}
}

func TestCompactAllAndNone(t *testing.T) {
	const n = 20
	c := Compact{N: n}

	h := newTestHost(t, c.GlobalWords()+64)
	all := make([]Word, n)
	for i := range all {
		all[i] = Word(i + 1)
	}
	got, err := c.Run(h, all)
	if err != nil {
		t.Fatalf("all-keep Run: %v", err)
	}
	if len(got) != n {
		t.Fatalf("all-keep: %d survivors, want %d", len(got), n)
	}

	h2 := newTestHost(t, c.GlobalWords()+64)
	got, err = c.Run(h2, make([]Word, n))
	if err != nil {
		t.Fatalf("none-keep Run: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("none-keep: %d survivors, want 0", len(got))
	}
}

func TestTopKSmoke(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {4, 2}, {5, 4}, {16, 3}, {33, 8}, {100, 4}, {3, 5},
	} {
		tk := TopK{N: tc.n, K: tc.k}
		h := newTestHost(t, tk.GlobalWords()+64)
		in := randWords(tc.n, int64(tc.n*7+tc.k))
		got, err := tk.Run(h, in)
		if err != nil {
			t.Fatalf("n=%d k=%d: Run: %v", tc.n, tc.k, err)
		}
		want, err := TopKReference(in, tc.k)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !equalWords(sortedCopy(got), sortedCopy(want)) {
			t.Fatalf("n=%d k=%d: got multiset %v want %v",
				tc.n, tc.k, sortedCopy(got), sortedCopy(want))
		}
	}
}

// TestTopKDuplicates pins the multiset argument: duplicated maxima must
// appear in the slots with their multiplicity.
func TestTopKDuplicates(t *testing.T) {
	in := []Word{7, 7, 7, 1, 2, 7, 3, 7}
	tk := TopK{N: len(in), K: 4}
	h := newTestHost(t, tk.GlobalWords()+64)
	got, err := tk.Run(h, in)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Word{7, 7, 7, 7}
	if !equalWords(sortedCopy(got), want) {
		t.Fatalf("got multiset %v want %v", sortedCopy(got), want)
	}
}

func TestMonteCarloSmoke(t *testing.T) {
	for _, tc := range []struct{ n, trials int }{
		{1, 1}, {4, 8}, {5, 3}, {16, 16}, {33, 5},
	} {
		mc := MonteCarlo{N: tc.n, Trials: tc.trials}
		h := newTestHost(t, 64)
		got, err := mc.Run(h)
		if err != nil {
			t.Fatalf("n=%d trials=%d: Run: %v", tc.n, tc.trials, err)
		}
		want, err := mc.MonteCarloReference()
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if got != want {
			t.Fatalf("n=%d trials=%d: hits = %d, want %d", tc.n, tc.trials, got, want)
		}
		if got < 0 || got > Word(tc.n*tc.trials) {
			t.Fatalf("hits %d outside [0, %d]", got, tc.n*tc.trials)
		}
	}
}

// TestAtomicWorkloadAnalyses checks every new workload produces a feasible
// ATGPU analysis on a Tiny-like parameter set.
func TestAtomicWorkloadAnalyses(t *testing.T) {
	p := core.Params{P: 4, B: 4, M: 64, G: 1 << 20}
	checks := []struct {
		name string
		run  func() error
	}{
		{"histogram", func() error { _, err := Histogram{N: 64, Bins: 8}.Analyze(p); return err }},
		{"histogram-priv", func() error {
			_, err := Histogram{N: 64, Bins: 8, Privatized: true}.Analyze(p)
			return err
		}},
		{"compact", func() error { _, err := Compact{N: 64}.Analyze(p); return err }},
		{"topk", func() error { _, err := TopK{N: 64, K: 4}.Analyze(p); return err }},
		{"montecarlo", func() error { _, err := MonteCarlo{N: 64, Trials: 8}.Analyze(p); return err }},
	}
	for _, c := range checks {
		if err := c.run(); err != nil {
			t.Errorf("%s: Analyze: %v", c.name, err)
		}
	}
}
