package service

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"atgpu/internal/experiments"
	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
)

func TestNormalizeDefaults(t *testing.T) {
	req, err := Request{Kind: "run", Workload: "vecadd", N: 64}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if req.Device != "gtx650" || req.Scheme != "pageable" || req.SyncCostUs != 50 {
		t.Fatalf("defaults not filled: %+v", req)
	}

	req, err = Request{Kind: "sweep", Workload: "matmul"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Sizes) == 0 || req.Sizes[0] != 32 {
		t.Fatalf("sweep sizes not defaulted: %v", req.Sizes)
	}

	// σ: 0 means default, -1 means zero.
	req, err = Request{Kind: "analyze", Workload: "vecadd", N: 8, SyncCostUs: -1}.Normalize()
	if err != nil || req.SyncCostUs != 0 {
		t.Fatalf("sync_cost_us=-1: %+v err=%v", req, err)
	}
}

func TestNormalizeRejections(t *testing.T) {
	bad := []Request{
		{Kind: "warp", Workload: "vecadd", N: 8},                      // unknown kind
		{Kind: "run", Workload: "sort", N: 8},                         // unknown workload
		{Kind: "run", Workload: "vecadd"},                             // missing n
		{Kind: "run", Workload: "vecadd", N: 8, Sizes: []int{1}},      // n and sizes
		{Kind: "sweep", Workload: "vecadd", N: 8},                     // sizes kind with n
		{Kind: "sweep", Workload: "vecadd", Sizes: []int{0}},          // bad size
		{Kind: "run", Workload: "vecadd", N: 8, Device: "rtx9090"},    // unknown device
		{Kind: "run", Workload: "vecadd", N: 8, Device: "sim-tiny"},   // preset's Config.Name, not its short name
		{Kind: "pipeline", Workload: "scan"},                          // no pipelined variant
		{Kind: "run", Workload: "vecadd", N: 8, Scheme: "psychic"},    // unknown scheme
		{Kind: "run", Workload: "vecadd", N: 8, FaultRate: 1.5},       // rate out of range
		{Kind: "run", Workload: "vecadd", N: 8, TimeoutMs: -5},        // negative timeout
		{Kind: "run", Workload: "vecadd", N: 8, SyncCostUs: -2},       // bad sync cost
		{Kind: "sweep", Workload: "vecadd", Sizes: make([]int, 1000)}, // too many sizes
	}
	for i, req := range bad {
		if _, err := req.Normalize(); err == nil {
			t.Errorf("request %d accepted: %+v", i, req)
		}
	}
	// Every registry entry, scan included, takes every kind but pipeline
	// on every device preset.
	for _, w := range experiments.Names() {
		for _, dev := range []string{"gtx650", "gtx1080", "k40", "tiny"} {
			for _, req := range []Request{
				{Kind: "run", Workload: w, N: 64, Device: dev},
				{Kind: "analyze", Workload: w, N: 64, Device: dev},
				{Kind: "lint", Workload: w, N: 64, Device: dev},
				{Kind: "sweep", Workload: w, Device: dev},
			} {
				if _, err := req.Normalize(); err != nil {
					t.Errorf("%s %s on %s rejected: %v", req.Kind, w, dev, err)
				}
			}
		}
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	base := Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 1}
	variants := []Request{
		{Kind: "analyze", Workload: "vecadd", N: 64, Device: "tiny", Seed: 1},
		{Kind: "run", Workload: "reduce", N: 64, Device: "tiny", Seed: 1},
		{Kind: "run", Workload: "vecadd", N: 128, Device: "tiny", Seed: 1},
		{Kind: "run", Workload: "vecadd", N: 64, Device: "gtx650", Seed: 1},
		{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 2},
		{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 1, Scheme: "pinned"},
		{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 1, FaultRate: 0.1},
		{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 1, FaultRate: 0.1, FaultSeed: 3},
		{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 1, SyncCostUs: -1},
	}
	norm := func(r Request) Request {
		n, err := r.Normalize()
		if err != nil {
			t.Fatalf("normalize %+v: %v", r, err)
		}
		return n
	}
	baseKey, err := norm(base).CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	// Stable across recomputation and across policy-only differences.
	again := norm(base)
	again.TimeoutMs = 5000
	again.NoCache = true
	again.Wait = true
	if k, _ := again.CacheKey(); k != baseKey {
		t.Fatal("execution policy leaked into the cache key")
	}
	seen := map[uint64]int{baseKey: -1}
	for i, v := range variants {
		k, err := norm(v).CacheKey()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d", i, prev)
		}
		seen[k] = i
	}

	// A lint's report depends on neither the input seed nor the fault
	// plan: variants differing only there share one key and execute to
	// identical bytes, while run and analyze seeds still split keys.
	lint := Request{Kind: "lint", Workload: "reduce", N: 1000, Device: "tiny", Seed: 1}
	lintKey, err := norm(lint).CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	x := NewExecutor()
	lintDoc, err := x.Execute(context.Background(), norm(lint))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []Request{
		{Kind: "lint", Workload: "reduce", N: 1000, Device: "tiny", Seed: 99999},
		{Kind: "lint", Workload: "reduce", N: 1000, Device: "tiny", Seed: 1, FaultRate: 0.3, FaultSeed: 5},
		{Kind: "lint", Workload: "reduce", N: 1000, Device: "tiny", Seed: 2, FaultRate: 1, MaxRetries: 4, WatchdogUs: 900},
	} {
		if k, err := norm(v).CacheKey(); err != nil || k != lintKey {
			t.Errorf("lint variant %d: key %x (err %v), want the shared %x", i, k, err, lintKey)
		}
		doc, err := x.Execute(context.Background(), norm(v))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc.Result, lintDoc.Result) {
			t.Errorf("lint variant %d: result differs from seed 1's", i)
		}
	}
	for _, kind := range []string{"run", "analyze"} {
		a, errA := norm(Request{Kind: kind, Workload: "reduce", N: 1000, Device: "tiny", Seed: 1}).CacheKey()
		b, errB := norm(Request{Kind: kind, Workload: "reduce", N: 1000, Device: "tiny", Seed: 2}).CacheKey()
		if errA != nil || errB != nil || a == b {
			t.Errorf("%s: seeds 1 and 2 share key %x (errors %v, %v)", kind, a, errA, errB)
		}
	}

	// Deep validation: matmul sizes must divide by the warp width.
	badMat, err := Request{Kind: "run", Workload: "matmul", N: 37, Device: "tiny"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := badMat.CacheKey(); err == nil {
		t.Fatal("matmul n=37 on warp 4 accepted by CacheKey")
	}
}

// TestExecuteDeterministic is the foundation under the cache: two
// independent executions of the same request — including under injected
// faults — must produce byte-identical documents.
func TestExecuteDeterministic(t *testing.T) {
	x := NewExecutor()
	reqs := []Request{
		{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 3},
		{Kind: "run", Workload: "reduce", N: 256, Device: "tiny", Seed: 3,
			FaultRate: 0.05, FaultSeed: 11},
		{Kind: "sweep", Workload: "vecadd", Device: "tiny", Sizes: []int{32, 64, 128}},
		{Kind: "analyze", Workload: "matmul", N: 32, Device: "tiny"},
		{Kind: "lint", Workload: "scan", N: 64, Device: "tiny"},
	}
	for i, raw := range reqs {
		req, err := raw.Normalize()
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		a, err := x.Execute(context.Background(), req)
		if err != nil {
			t.Fatalf("req %d first execute: %v", i, err)
		}
		b, err := x.Execute(context.Background(), req)
		if err != nil {
			t.Fatalf("req %d second execute: %v", i, err)
		}
		if !bytes.Equal(a.Result, b.Result) {
			t.Errorf("req %d (%s %s): executions diverge:\n%s\nvs\n%s",
				i, req.Kind, req.Workload, a.Result, b.Result)
		}
		var doc Result
		if err := json.Unmarshal(a.Result, &doc); err != nil {
			t.Fatalf("req %d: result not JSON: %v", i, err)
		}
		if doc.Kind != req.Kind || doc.Workload != req.Workload {
			t.Errorf("req %d: document header %+v", i, doc)
		}
	}
	// One calibration serves every tiny/pageable/50µs request above.
	if got := x.CalibrationsWarmed(); got != 1 {
		t.Errorf("calibrations = %d, want 1 shared", got)
	}
}

func TestExecutePayloadShapes(t *testing.T) {
	x := NewExecutor()
	ctx := context.Background()
	run := func(raw Request) Result {
		req, err := raw.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		art, err := x.Execute(ctx, req)
		if err != nil {
			t.Fatalf("%s %s: %v", req.Kind, req.Workload, err)
		}
		var doc Result
		if err := json.Unmarshal(art.Result, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	if doc := run(Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny"}); doc.Point == nil ||
		doc.Point.N != 64 || doc.Point.TotalTime <= 0 {
		t.Errorf("run payload = %+v", doc.Point)
	}
	if doc := run(Request{Kind: "analyze", Workload: "vecadd", N: 64, Device: "tiny"}); doc.Point == nil ||
		doc.Point.ATGPUCost <= 0 || doc.Point.TotalTime != 0 {
		t.Errorf("analyze payload = %+v (must be model-only)", doc.Point)
	}
	if doc := run(Request{Kind: "sweep", Workload: "vecadd", Device: "tiny", Sizes: []int{32, 64}}); len(doc.Points) != 2 {
		t.Errorf("sweep payload = %d points", len(doc.Points))
	}
	if doc := run(Request{Kind: "pipeline", Workload: "vecadd", Device: "tiny", Sizes: []int{64}, Chunks: 2}); len(doc.Pipeline) != 1 ||
		doc.Pipeline[0].Pipelined.TotalTime <= 0 || doc.FailedPoints != 0 {
		t.Errorf("pipeline payload = %+v", doc.Pipeline)
	}
	// A pipelined point that runs out of fault recovery is recorded, not
	// an error, as in a sweep job.
	if doc := run(Request{Kind: "pipeline", Workload: "reduce", Sizes: []int{1 << 16, 1 << 18},
		FaultRate: 0.6, FaultSeed: 1, MaxRetries: 1}); doc.FailedPoints == 0 || len(doc.Pipeline) != 2 {
		t.Errorf("faulted pipeline job: %d failed points of %d", doc.FailedPoints, len(doc.Pipeline))
	}
	if doc := run(Request{Kind: "lint", Workload: "vecadd", N: 64, Device: "tiny"}); doc.Lint == nil {
		t.Error("lint payload missing")
	}
}

func TestExecuteCancellationSurfaces(t *testing.T) {
	x := NewExecutor()
	req, err := Request{Kind: "sweep", Workload: "vecadd", Device: "tiny",
		Sizes: []int{32, 64, 128}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.Execute(ctx, req); err == nil ||
		!strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled execute returned %v", err)
	}
}

func TestWarmUnknownDevice(t *testing.T) {
	// A preset's Config.Name is not a lookup key; only the short names are.
	for _, name := range []string{"quantum9000", "sim-gtx650"} {
		err := NewExecutor().Warm(name)
		if err == nil || !strings.Contains(err.Error(), "want gtx650, gtx1080, k40 or tiny") {
			t.Fatalf("Warm(%q) = %v, want an unknown-preset error naming the presets", name, err)
		}
	}
}

// TestCacheKeyCoversEveryDeviceField perturbs each simgpu.Config field in
// turn: every one must move the key, so a field added to the machine
// description cannot be left out of the key's device encoding.
func TestCacheKeyCoversEveryDeviceField(t *testing.T) {
	req, err := Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	base, err := req.Compile()
	if err != nil {
		t.Fatal(err)
	}
	baseKey := base.Key()
	typ := reflect.TypeOf(simgpu.Config{})
	for i := 0; i < typ.NumField(); i++ {
		c := *base
		f := reflect.ValueOf(&c.cfg.Device).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() * 2)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "'")
		default:
			t.Fatalf("simgpu.Config.%s: no perturbation for kind %s", typ.Field(i).Name, f.Kind())
		}
		if c.Key() == baseKey {
			t.Errorf("perturbing simgpu.Config.%s leaves the cache key unchanged", typ.Field(i).Name)
		}
	}
}

// TestLintJobBuildsEachKernelOnce counts kernel builds across a lint
// job's admission and execution: admission builds the kernel once, and
// the lint analyses that build — its report names the kernel admission
// renamed — rather than making another.
func TestLintJobBuildsEachKernelOnce(t *testing.T) {
	var builds atomic.Int64
	defer func(orig func(*experiments.Workload, int, int) (*kernel.Program, int, error)) {
		buildKernel = orig
	}(buildKernel)
	orig := buildKernel
	buildKernel = func(w *experiments.Workload, n, b int) (*kernel.Program, int, error) {
		builds.Add(1)
		prog, blocks, err := orig(w, n, b)
		if err != nil {
			return nil, 0, err
		}
		admitted := *prog
		admitted.Name = "admitted"
		return &admitted, blocks, nil
	}
	s := newTestServer(t, ServerConfig{Workers: 1})
	job, err := s.Submit("t", Request{Kind: "lint", Workload: "matmul", N: 32, Device: "tiny", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-s.Manifest().Done(job.ID)
	final, _ := s.Manifest().Get(job.ID)
	if final.State != StateSuccess {
		t.Fatalf("lint job ended %s: %s", final.State, final.Error)
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("lint job built its kernel %d times, want 1", got)
	}
	var doc Result
	if err := json.Unmarshal(final.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Lint == nil || doc.Lint.Kernel != "admitted" {
		t.Errorf("lint analysed kernel %+v, want the one admission built", doc.Lint)
	}
}
