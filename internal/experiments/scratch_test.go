package experiments

import (
	"reflect"
	"testing"

	"atgpu/internal/mem"
)

// TestScratchReuseIsolated: a Runner whose scratch buffers serve points
// that go big → small → big, twice over, gives the records a fresh buffer
// per point gives — stale memory never leaks between points — at one and
// two workers, and a device built over a used buffer reads zero, as one
// from simgpu.New does. Every buffer is the largest footprint plus slack
// from the sweep's first point on, and the input vectors the largest
// input: one array each, never regrown.
func TestScratchReuseIsolated(t *testing.T) {
	sizes := []int{4096, 1024, 2048}
	for _, workers := range []int{1, 2} {
		for _, workload := range []string{"vecadd", "histogram"} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			if err := cfg.SetSweepSizes(workload, sizes); err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got *WorkloadData
			for rep := 0; rep < 2; rep++ {
				if got, err = r.Sweep(workload); err != nil {
					t.Fatal(err)
				}
			}

			w, err := Lookup(workload)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range sizes {
				pt, err := r.sweepPoint(w, new(pointScratch), i, n)
				if err != nil {
					t.Fatal(err)
				}
				if want := r.Record("sweep", workload, pt); !reflect.DeepEqual(got.Records[i], want) {
					t.Errorf("workers=%d %s n=%d: reused-scratch record differs from a fresh buffer's:\n%+v\nvs\n%+v",
						workers, workload, n, got.Records[i], want)
				}
			}

			want := w.footprint(sizes[0], cfg.Device.WarpWidth) + alignSlack(cfg.Device.WarpWidth)
			r.scratch.mu.Lock()
			idle := r.scratch.free
			r.scratch.mu.Unlock()
			if len(idle) == 0 || len(idle) > workers {
				t.Fatalf("workers=%d %s: %d idle scratch buffers, want 1..%d", workers, workload, len(idle), workers)
			}
			for _, s := range idle {
				if cap(s.global) != want {
					t.Errorf("workers=%d %s: a buffer retains %d words, want %d", workers, workload, cap(s.global), want)
				}
			}

			dc := cfg.Device
			dc.GlobalWords = want
			dev, err := idle[0].device(dc)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range dev.Global().Raw() {
				if v != 0 {
					t.Fatalf("workers=%d %s: reused global word %d = %d, want 0", workers, workload, i, v)
				}
			}
		}
	}

	// Along an ascending ladder a buffer taken for the sweep's largest
	// device keeps one array throughout: the first point does not size it.
	r := newTestRunner(t)
	w, err := Lookup("vecadd")
	if err != nil {
		t.Fatal(err)
	}
	asc := []int{1024, 2048, 4096}
	b := r.Config().Device.WarpWidth
	largest := r.sweepGlobalWords(asc, func(n int) int { return w.footprint(n, b) })
	if want := w.footprint(asc[2], b) + alignSlack(b); largest != want {
		t.Fatalf("sweepGlobalWords = %d, want %d", largest, want)
	}
	s := r.scratch.get(largest, w.sweepInputWords(asc))
	if cap(s.global) != largest {
		t.Fatalf("a buffer taken for %d words holds %d", largest, cap(s.global))
	}
	arrays := func() [3]*mem.Word { return [3]*mem.Word{&s.global[:1][0], &s.in[0][:1][0], &s.in[1][:1][0]} }
	var first [3]*mem.Word
	for i, n := range asc {
		if _, err := r.sweepPoint(w, s, i, n); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = arrays()
			if cap(s.in[0]) != asc[2] || cap(s.in[1]) != asc[2] {
				t.Fatalf("the first point's inputs hold %d and %d words, want the sweep's largest %d",
					cap(s.in[0]), cap(s.in[1]), asc[2])
			}
		} else if arrays() != first {
			t.Fatalf("vecadd n=%d: a buffer regrew along an ascending ladder", n)
		}
	}
}
