package results

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atgpu/internal/sched"
	"atgpu/internal/simgpu"
)

func testRecord(kind, workload string, n int) Record {
	return Record{
		Kind:     kind,
		Workload: workload,
		N:        n,
		Machine:  &Machine{Device: simgpu.Tiny(), Scheme: "pageable", SyncCostUs: 50},
		Observed: &Observed{TotalS: float64(n) / 1000, KernelS: float64(n) / 4000},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		testRecord("sweep", "vecadd", 100),
		testRecord("sweep", "reduce", 200),
		testRecord("run", "vecadd", 100),
	}
	for i, r := range recs {
		env := &Env{SavedUnix: int64(1000 + i), Host: "h", Note: fmt.Sprintf("note%d", i)}
		if err := s.Append(r, env); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(recs) {
		t.Fatalf("reopened store has %d entries, want %d", re.Len(), len(recs))
	}
	for i, e := range re.Entries() {
		if e.Record.Key() != recs[i].Key() {
			t.Fatalf("entry %d key = %q, want %q", i, e.Record.Key(), recs[i].Key())
		}
		if e.Env == nil || e.Env.Note != fmt.Sprintf("note%d", i) {
			t.Fatalf("entry %d env = %+v", i, e.Env)
		}
	}

	// Queries.
	if got := re.Query(Filter{Workload: "vecadd"}); len(got) != 2 {
		t.Fatalf("by-workload query returned %d entries, want 2", len(got))
	}
	if got := re.Query(Filter{Kind: "run"}); len(got) != 1 || got[0].Record.Workload != "vecadd" {
		t.Fatalf("by-kind query = %+v", got)
	}
	if got := re.Query(Filter{Machine: "sim-tiny"}); len(got) != 3 {
		t.Fatalf("by-machine query returned %d entries, want 3", len(got))
	}
	if got := re.Query(Filter{N: 200}); len(got) != 1 {
		t.Fatalf("by-n query returned %d entries, want 1", len(got))
	}
	if _, ok := re.Latest(Filter{Workload: "scan"}); ok {
		t.Fatal("Latest matched a workload that was never stored")
	}
	latest, ok := re.Latest(Filter{Workload: "vecadd"})
	if !ok || latest.Record.Kind != "run" {
		t.Fatalf("Latest(vecadd) = %+v, want the run record (appended last)", latest.Record)
	}
}

// TestStoreBest: Best returns the entry with the lowest headline
// metric; ties keep the earliest append.
// TestPersistRun covers the CLIs' persist boundary: the run label,
// worker count and envelope are stamped on append, the records passed in
// are left untouched, and an empty directory persists nothing.
func TestPersistRun(t *testing.T) {
	recs := []Record{testRecord("sweep", "vecadd", 100), testRecord("sweep", "vecadd", 200)}
	if path, err := PersistRun("", "r", recs, 2, time.Unix(7, 0), time.Second); path != "" || err != nil {
		t.Fatalf("empty dir persisted to %q (err %v)", path, err)
	}
	dir := filepath.Join(t.TempDir(), "out")
	path, err := PersistRun(dir, "label", recs, 2, time.Unix(7, 0), 1500*time.Millisecond)
	if err != nil || path != filepath.Join(dir, "records.jsonl") {
		t.Fatalf("PersistRun = %q, %v", path, err)
	}
	if recs[0].Run != "" || recs[0].Workers != 0 {
		t.Fatalf("caller's record was stamped: %+v", recs[0])
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, e := range s.Entries() {
		if e.Record.Run != "label" || e.Record.Workers != 2 || e.Record.N != recs[i].N ||
			e.Env == nil || e.Env.SavedUnix != 7 || e.Env.WallMs != 1500 || e.Env.Note != "label" {
			t.Fatalf("entry %d = %+v env %+v", i, e.Record, e.Env)
		}
	}
	if s.Len() != len(recs) {
		t.Fatalf("%d entries, want %d", s.Len(), len(recs))
	}
}

func TestStoreBest(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "r.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, total := range []float64{3, 1, 2, 1} {
		r := testRecord("sweep", "vecadd", 100)
		r.Run = fmt.Sprintf("run%d", i)
		r.Observed.TotalS = total
		if err := s.Append(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	best, ok := s.Best(Filter{Workload: "vecadd"})
	if !ok || best.Record.Run != "run1" {
		t.Fatalf("Best = %+v, want run1 (first of the tied minima)", best.Record)
	}
}

// TestStoreConcurrentWriters: many goroutines appending through the
// repo's own scheduler leave the store with every line intact (-race
// covers the locking).
func TestStoreConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	errs := sched.Run(context.Background(), n, 8, func(i int) error {
		r := testRecord("sweep", "vecadd", 100+i)
		r.Run = fmt.Sprintf("writer%d", i)
		return s.Append(r, &Env{Note: fmt.Sprintf("w%d", i)})
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n {
		t.Fatalf("store has %d entries, want %d", re.Len(), n)
	}
	seen := map[int]bool{}
	for _, e := range re.Entries() {
		seen[e.Record.N] = true
	}
	if len(seen) != n {
		t.Fatalf("only %d distinct records survived, want %d", len(seen), n)
	}
}

// TestStoreTruncatedTailRecovery: a partial trailing line (the classic
// crash-mid-append shape) is dropped on Open and the file truncated
// back to the last good entry; appends then continue cleanly.
func TestStoreTruncatedTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(testRecord("sweep", "vecadd", 100+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Chop the file mid-way through the last line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatalf("Open after truncation: %v", err)
	}
	if re.Len() != 2 {
		t.Fatalf("recovered %d entries, want 2", re.Len())
	}
	if err := re.Append(testRecord("sweep", "vecadd", 999), nil); err != nil {
		t.Fatal(err)
	}
	re.Close()

	fin, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fin.Close()
	if fin.Len() != 3 {
		t.Fatalf("after recovery + append: %d entries, want 3", fin.Len())
	}
	if got := fin.Entries()[2].Record.N; got != 999 {
		t.Fatalf("recovered tail record n = %d, want 999", got)
	}
}

// TestStoreMidFileCorruptionRejected: damage anywhere but the trailing
// line is not silently dropped — that would erase history — it errors.
func TestStoreMidFileCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(testRecord("sweep", "vecadd", 100+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "{broken json\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open on mid-file corruption = %v, want corrupt-entry error", err)
	}
}
