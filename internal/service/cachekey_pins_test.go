package service

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateKeyPins = flag.Bool("update-pins", false, "rewrite testdata/cache_keys.json from the current code")

// pinnedKeyRequests is a fixed table of requests whose cache keys are
// pinned: a changed key silently invalidates every cached result, so a
// refactor must leave them alone.
func pinnedKeyRequests() []Request {
	var reqs []Request
	for _, w := range []string{"vecadd", "reduce", "matmul"} {
		n := map[string]int{"vecadd": 4096, "reduce": 1 << 16, "matmul": 64}[w]
		reqs = append(reqs,
			Request{Kind: "run", Workload: w, N: n},
			Request{Kind: "run", Workload: w, N: n, Device: "k40", Seed: 7, Trace: true},
			Request{Kind: "run", Workload: w, N: n, FaultRate: 0.2, FaultSeed: 3, MaxRetries: 2},
			Request{Kind: "sweep", Workload: w},
			Request{Kind: "sweep", Workload: w, Sizes: []int{n, 2 * n}, Metrics: true},
			Request{Kind: "pipeline", Workload: w},
			Request{Kind: "pipeline", Workload: w, Sizes: []int{n}, Chunks: 3, Scheme: "pinned"},
			Request{Kind: "analyze", Workload: w, N: n},
			Request{Kind: "analyze", Workload: w, N: 2 * n, Device: "gtx1080", SyncCostUs: -1},
			Request{Kind: "lint", Workload: w, N: n},
			Request{Kind: "lint", Workload: w, N: n, Device: "tiny"},
		)
	}
	reqs = append(reqs,
		Request{Kind: "lint", Workload: "scan", N: 4096},
		Request{Kind: "lint", Workload: "scan", N: 1 << 16, Device: "gtx1080"},
	)
	return reqs
}

// TestCacheKeyPins holds every pinned request's key to its recorded
// value. Regenerate with -update-pins only for an intended cache-key
// format change (which should also bump the key's version tag).
func TestCacheKeyPins(t *testing.T) {
	var got []string
	for i, req := range pinnedKeyRequests() {
		norm, err := req.Normalize()
		if err != nil {
			t.Fatalf("request %d %+v: normalize: %v", i, req, err)
		}
		key, err := norm.CacheKey()
		if err != nil {
			t.Fatalf("request %d %+v: key: %v", i, req, err)
		}
		got = append(got, fmt.Sprintf("%s %s %016x", req.Kind, req.Workload, key))
	}

	path := filepath.Join("testdata", "cache_keys.json")
	if *updateKeyPins {
		raw, _ := json.MarshalIndent(got, "", "  ")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pinned %d keys, computed %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: key %q, pinned %q", i, got[i], want[i])
		}
	}
}
