package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/experiments"
	"atgpu/internal/kernel"
	"atgpu/internal/mem"
	"atgpu/internal/results"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// errVerify marks an output that differs from the CPU reference.
var errVerify = errors.New("output differs from the CPU reference")

// layerCounts are the exact work counts traced points accumulate.
type layerCounts struct {
	launches   int64
	certified  int64
	memoSkips  int64
	warpInstrs int64
	cycles     int64
	words      int64
	allocBytes uint64
}

// exact returns the counts a deterministic simulator repeats exactly:
// all but the measured allocation.
func (c layerCounts) exact() layerCounts {
	c.allocBytes = 0
	return c
}

// layerProbe replays a sweep point or a service job through the public
// calls of each layer — in the order the experiments runner makes them,
// with the same device sizing and input seeds — and records a span
// around every call. The runner discards vecadd and matmul outputs; the
// probe keeps them and checks every result against the CPU reference.
type layerProbe struct {
	tr     *tracer
	link   *transfer.Link
	counts layerCounts
	// checking is the time spent comparing outputs with the CPU
	// reference and records with the runner's, which the runner does not
	// do; a traced op leaves it out of its wall time.
	checking time.Duration
}

// check runs one comparison and adds its time to d.checking.
func (d *layerProbe) check(f func() error) error {
	t0 := time.Now()
	defer func() { d.checking += time.Since(t0) }()
	return f()
}

// predict prices one point on the model through Runner.PredictPoint:
// the workload's analysis, Expression (2) and the SWGPU baseline.
func (d *layerProbe) predict(r *experiments.Runner, workload string, n int, id string) (experiments.WorkloadPoint, error) {
	s := d.tr.begin("core.predict", id)
	defer d.tr.end(s)
	return r.PredictPoint(workload, n)
}

// point runs the observed point idx (size n) of r's sweep of workload and
// returns its canonical record, stamped as kind. An output that differs
// from the CPU reference returns errVerify.
func (d *layerProbe) point(r *experiments.Runner, kind, workload string, n, idx int) (results.Record, error) {
	id := fmt.Sprintf("%s n=%d", workload, n)
	pt, err := d.predict(r, workload, n, id)
	if err != nil {
		return results.Record{}, err
	}
	cfg := r.Config()
	h, err := d.newHost(cfg, footprint(workload, n, cfg.Device.WarpWidth), id)
	if err != nil {
		return results.Record{}, err
	}
	rng := rand.New(rand.NewSource(derivedSeed(cfg.Seed, "input", workload, n, idx)))
	switch workload {
	case "vecadd":
		err = d.vecAdd(h, n, rng, id)
	case "matmul":
		err = d.matMul(h, n, rng, id)
	case "reduce":
		err = d.reduce(h, n, rng, id)
	}
	if err != nil {
		return results.Record{}, fmt.Errorf("%s: %w", id, err)
	}

	rep := h.Report()
	pt.TotalTime = rep.Total.Seconds()
	pt.KernelTime = rep.Kernel.Seconds()
	pt.TransferTime = rep.Transfer.Seconds()
	pt.SyncTime = rep.Sync.Seconds()
	pt.DeltaObserved = rep.TransferFraction()
	pt.Transfers = rep.Transfers
	pt.Resilience = rep.Resilience

	ks := h.KernelStats()
	d.counts.launches += int64(h.Launches())
	d.counts.warpInstrs += ks.InstructionsIssued
	d.counts.cycles += ks.Cycles
	d.counts.memoSkips += h.Device().MemoSkips()
	d.counts.words += int64(rep.Transfers.TotalWords())
	return r.Record(kind, workload, pt), nil
}

// footprint is the global memory a point's plan allocates, in words.
func footprint(workload string, n, width int) int {
	switch workload {
	case "vecadd":
		return algorithms.VecAdd{N: n}.GlobalWords()
	case "matmul":
		return algorithms.MatMul{N: n}.GlobalWords()
	}
	return algorithms.Reduce{N: n}.GlobalWords(width)
}

// newHost builds the point's device, sized like the runner's (footprint
// plus four warps of alignment slack), with its engine and host.
func (d *layerProbe) newHost(cfg experiments.Config, words int, id string) (*simgpu.Host, error) {
	devCfg := cfg.Device
	devCfg.GlobalWords = words + 4*devCfg.WarpWidth
	before := totalAlloc()
	s := d.tr.begin("mem.alloc", id)
	dev, err := simgpu.New(devCfg)
	d.tr.end(s)
	d.counts.allocBytes += totalAlloc() - before
	if err != nil {
		return nil, err
	}
	s = d.tr.begin("simgpu.host", id)
	defer d.tr.end(s)
	dev.SetUniformProver(d.prover(id))
	eng, err := transfer.NewEngine(d.link, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	return simgpu.NewHost(dev, eng, cfg.SyncCost)
}

// prover wraps the BlockUniform certifier in a span; the device calls it
// from inside a launch.
func (d *layerProbe) prover(id string) simgpu.UniformProver {
	return func(prog *kernel.Program, cfg simgpu.Config, blocks int) bool {
		s := d.tr.begin("analyze.certify", id)
		ok := analyze.UniformProver(prog, cfg, blocks)
		d.tr.end(s)
		if ok {
			d.counts.certified++
		}
		return ok
	}
}

func (d *layerProbe) decode(prog *kernel.Program, width int, id string) error {
	s := d.tr.begin("kernel.decode", id)
	_, err := kernel.Decode(prog, width)
	d.tr.end(s)
	return err
}

// singleRound is the plan VecAdd.Run and MatMul.Run share: allocate three
// arrays of words, move both inputs in, launch once, move the result
// out and synchronise.
func (d *layerProbe) singleRound(h *simgpu.Host, words int, a, b []mem.Word,
	build func(baseA, baseB, baseC int) (*kernel.Program, error), blocks int, id string) ([]mem.Word, error) {
	var base [3]int
	for i := range base {
		var err error
		if base[i], err = h.Malloc(words); err != nil {
			return nil, err
		}
	}
	prog, err := build(base[0], base[1], base[2])
	if err != nil {
		return nil, err
	}
	if err := d.decode(prog, h.Device().Config().WarpWidth, id); err != nil {
		return nil, err
	}
	s := d.tr.begin("transfer.in", id)
	err = h.TransferIn(base[0], a)
	if err == nil {
		err = h.TransferIn(base[1], b)
	}
	d.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = d.tr.begin("simgpu.launch", id)
	_, err = h.Launch(prog, blocks)
	d.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = d.tr.begin("transfer.out", id)
	c, err := h.TransferOut(base[2], words)
	d.tr.end(s)
	if err != nil {
		return nil, err
	}
	h.EndRound()
	return c, nil
}

func (d *layerProbe) vecAdd(h *simgpu.Host, n int, rng *rand.Rand, id string) error {
	a, b := randWords(rng, n), randWords(rng, n)
	alg := algorithms.VecAdd{N: n}
	w := h.Device().Config().WarpWidth
	c, err := d.singleRound(h, n, a, b, func(x, y, z int) (*kernel.Program, error) {
		return alg.Kernel(w, x, y, z)
	}, alg.Blocks(w), id)
	if err != nil {
		return err
	}
	return d.check(func() error {
		want, err := algorithms.VecAddReference(a, b)
		if err != nil {
			return err
		}
		return sameWords(c, want)
	})
}

func (d *layerProbe) matMul(h *simgpu.Host, n int, rng *rand.Rand, id string) error {
	a, b := randWords(rng, n*n), randWords(rng, n*n)
	alg := algorithms.MatMul{N: n}
	w := h.Device().Config().WarpWidth
	c, err := d.singleRound(h, n*n, a, b, func(x, y, z int) (*kernel.Program, error) {
		return alg.Kernel(w, x, y, z)
	}, alg.Blocks(w), id)
	if err != nil {
		return err
	}
	return d.check(func() error {
		want, err := algorithms.MatMulReference(a, b, n)
		if err != nil {
			return err
		}
		return sameWords(c, want)
	})
}

// reduce mirrors Reduce.Run: one transfer in, one launch and
// synchronisation per round, ping-ponging buffers, one word out.
func (d *layerProbe) reduce(h *simgpu.Host, n int, rng *rand.Rand, id string) error {
	in := randBits(rng, n)
	w := h.Device().Config().WarpWidth
	src, err := h.Malloc(n)
	if err != nil {
		return err
	}
	dst, err := h.Malloc((n + w - 1) / w)
	if err != nil {
		return err
	}
	s := d.tr.begin("transfer.in", id)
	err = h.TransferIn(src, in)
	d.tr.end(s)
	if err != nil {
		return err
	}
	for count := n; count > 1; count = (count + w - 1) / w {
		prog, err := algorithms.Reduce{N: n}.Kernel(w, src, dst, count)
		if err != nil {
			return err
		}
		if err := d.decode(prog, w, id); err != nil {
			return err
		}
		s := d.tr.begin("simgpu.launch", id)
		_, err = h.Launch(prog, (count+w-1)/w)
		d.tr.end(s)
		if err != nil {
			return err
		}
		h.EndRound()
		src, dst = dst, src
	}
	s = d.tr.begin("transfer.out", id)
	ans, err := h.TransferOut(src, 1)
	d.tr.end(s)
	if err != nil {
		return err
	}
	return d.check(func() error {
		if want := algorithms.ReduceReference(in); ans[0] != want {
			return fmt.Errorf("%w: got %d want %d", errVerify, ans[0], want)
		}
		return nil
	})
}

func sameWords(got, want []mem.Word) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d words, want %d", errVerify, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%w: word %d is %d, want %d", errVerify, i, got[i], want[i])
		}
	}
	return nil
}

// derivedSeed is the runner's per-point seed derivation, repeated here so
// the traced pass draws exactly the inputs the untraced pass drew.
func derivedSeed(base int64, domain, workload string, n, idx int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	h.Write([]byte(domain))
	h.Write([]byte{0})
	h.Write([]byte(workload))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(idx))
	h.Write(buf[:])
	return int64(h.Sum64() & (1<<63 - 1))
}

// randWords and randBits are the runner's input generators.
func randWords(rng *rand.Rand, n int) []mem.Word {
	w := make([]mem.Word, n)
	for i := range w {
		w[i] = mem.Word(rng.Intn(2001) - 1000)
	}
	return w
}

func randBits(rng *rand.Rand, n int) []mem.Word {
	w := make([]mem.Word, n)
	for i := range w {
		w[i] = mem.Word(rng.Intn(2))
	}
	return w
}
