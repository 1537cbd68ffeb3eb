package transfer

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"atgpu/internal/faults"
	"atgpu/internal/mem"
	"atgpu/internal/obs"
)

// Direction of a transfer relative to the device.
type Direction int

const (
	// HostToDevice is inward transfer (the paper's Iᵢ words, Îᵢ
	// transactions, W operator from a host variable to a global one).
	HostToDevice Direction = iota
	// DeviceToHost is outward transfer (Oᵢ, Ôᵢ).
	DeviceToHost
)

// String names the direction in CUDA-like terms.
func (d Direction) String() string {
	if d == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// site maps a direction onto the fault injector's site space.
func (d Direction) site() faults.Site {
	if d == HostToDevice {
		return faults.SiteH2D
	}
	return faults.SiteD2H
}

// Record describes one completed transfer transaction for tracing and for
// auditing the model's Î/Ô counts. With fault injection active a record
// covers all attempts of the transaction: Cost includes re-transfers and
// backoff waits, and the per-fault counters say what went wrong.
type Record struct {
	Direction Direction
	Scheme    Scheme
	Words     int
	Offset    int           // device global-memory offset
	Cost      time.Duration // total simulated cost including retries

	// Attempts is the number of tries the transaction took (1 = clean).
	Attempts int
	// Backoff is the portion of Cost spent waiting between retries.
	Backoff time.Duration
	// Corruptions, Drops and Stalls count the faults hit across attempts.
	Corruptions int
	Drops       int
	Stalls      int
}

// Stats accumulates per-direction transfer totals; these are exactly the
// quantities the ATGPU data-transfer metric sums: ΣᵢIᵢ, ΣᵢOᵢ and the
// transaction counts behind TI/TO. The resilience counters beneath record
// fault-recovery work: words counted as In/Out moved exactly once; retried
// attempts appear only in Retries/RetransferredWords.
//
// Stats itself is a plain value with no locking; the Engine serialises all
// accumulation behind its own mutex, and Merge supports folding per-sweep
// engines together after concurrent runs.
type Stats struct {
	InTransactions  int
	InWords         int
	InTime          time.Duration
	OutTransactions int
	OutWords        int
	OutTime         time.Duration

	// Retries counts re-attempted transactions (attempts beyond each
	// transaction's first).
	Retries int
	// RetransferredWords is the words moved again by those retries.
	RetransferredWords int
	// CorruptionsDetected counts checksum mismatches caught.
	CorruptionsDetected int
	// DroppedTransactions counts attempts that failed outright.
	DroppedTransactions int
	// StallEvents counts attempts that completed slowed-down.
	StallEvents int
	// BackoffTime is the simulated time spent waiting between retries.
	BackoffTime time.Duration
}

// TotalWords returns Σ(Iᵢ+Oᵢ), the paper's total transfer metric.
func (s Stats) TotalWords() int { return s.InWords + s.OutWords }

// TotalTime returns the wall time spent in transfers.
func (s Stats) TotalTime() time.Duration { return s.InTime + s.OutTime }

// Faulted reports whether any fault-recovery work happened.
func (s Stats) Faulted() bool {
	return s.Retries > 0 || s.CorruptionsDetected > 0 || s.DroppedTransactions > 0 || s.StallEvents > 0
}

// Add folds r into the totals.
func (s *Stats) Add(r Record) {
	if r.Direction == HostToDevice {
		s.InTransactions++
		s.InWords += r.Words
		s.InTime += r.Cost
	} else {
		s.OutTransactions++
		s.OutWords += r.Words
		s.OutTime += r.Cost
	}
	if r.Attempts > 1 {
		s.Retries += r.Attempts - 1
		s.RetransferredWords += (r.Attempts - 1) * r.Words
	}
	s.CorruptionsDetected += r.Corruptions
	s.DroppedTransactions += r.Drops
	s.StallEvents += r.Stalls
	s.BackoffTime += r.Backoff
}

// Merge folds other into s field-wise, for aggregating per-engine totals
// across concurrent sweeps.
func (s *Stats) Merge(other Stats) {
	s.InTransactions += other.InTransactions
	s.InWords += other.InWords
	s.InTime += other.InTime
	s.OutTransactions += other.OutTransactions
	s.OutWords += other.OutWords
	s.OutTime += other.OutTime
	s.Retries += other.Retries
	s.RetransferredWords += other.RetransferredWords
	s.CorruptionsDetected += other.CorruptionsDetected
	s.DroppedTransactions += other.DroppedTransactions
	s.StallEvents += other.StallEvents
	s.BackoffTime += other.BackoffTime
}

// Engine moves words between host slices and a device global memory,
// charging Boyer costs on a simulated timeline. It is the substrate
// standing in for cudaMemcpy plus the PCIe DMA engines.
//
// With a fault injector attached (SetFaults), every transaction is
// checksum-verified end to end and faulted attempts are retried under the
// engine's RetryPolicy; without one, the fast path is byte-identical to
// the fault-free engine. All methods are safe for concurrent use.
type Engine struct {
	mu     sync.Mutex
	link   *Link
	scheme Scheme
	stats  Stats
	trace  []Record
	keep   bool // whether to retain per-record trace

	inj    faults.Injector
	policy RetryPolicy
	jrng   *rand.Rand // backoff jitter source

	orec *obs.Recorder // trace sink (nil = disabled)
	omet *obs.Registry // metrics sink (nil = disabled)
}

// NewEngine creates an engine over link using scheme for all transfers.
func NewEngine(link *Link, scheme Scheme) (*Engine, error) {
	if link == nil {
		return nil, fmt.Errorf("transfer: nil link")
	}
	if _, err := link.Model(scheme); err != nil {
		return nil, err
	}
	return &Engine{link: link, scheme: scheme, policy: DefaultRetryPolicy()}, nil
}

// SetFaults attaches a fault injector and the retry policy governing
// recovery. A nil injector restores fault-free operation (the policy is
// still validated and stored).
func (e *Engine) SetFaults(inj faults.Injector, policy RetryPolicy) error {
	if err := policy.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.inj = inj
	e.policy = policy
	e.jrng = rand.New(rand.NewSource(policy.Seed))
	return nil
}

// SetObs attaches the unified observability sinks: every completed
// transaction mirrors into the registry's atgpu_transfer_* series, and
// the async entry points emit per-transaction spans (with retry and
// fault instants) onto the recorder. Nil sinks disable the respective
// surface; the uninstrumented path stays allocation-free.
func (e *Engine) SetObs(rec *obs.Recorder, met *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.orec = rec
	e.omet = met
}

// SetTrace toggles retention of per-transaction records.
func (e *Engine) SetTrace(keep bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.keep = keep
}

// Scheme returns the engine's transfer scheme.
func (e *Engine) Scheme() Scheme { return e.scheme }

// Model returns the engine's active cost model.
func (e *Engine) Model() CostModel {
	m, err := e.link.Model(e.scheme)
	if err != nil {
		panic(err) // checked in NewEngine; unreachable
	}
	return m
}

// In copies src into device global memory at offset as a single
// transaction, returning the simulated cost. Injected faults are detected
// by checksum verification and retried under the engine's policy; the
// returned cost then includes the re-transfers and backoff waits.
func (e *Engine) In(g *mem.Global, offset int, src []mem.Word) (time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, _, err := e.in(g, offset, src)
	return d, err
}

// in is In without locking, for use by InChunked and the async entry
// points; it additionally returns the transaction's Record so callers
// can annotate trace spans with retry detail.
func (e *Engine) in(g *mem.Global, offset int, src []mem.Word) (time.Duration, Record, error) {
	// Pre-flight the range so programming errors surface immediately and
	// are never charged, faulted or retried.
	if err := g.CheckWrite(offset, len(src)); err != nil {
		return 0, Record{}, err
	}
	clean := e.Model().CostDuration(1, len(src))
	rec := Record{Direction: HostToDevice, Scheme: e.scheme, Words: len(src), Offset: offset}
	var total time.Duration
	for attempt := 0; ; attempt++ {
		d := e.decide(faults.SiteH2D, attempt, len(src))
		cost := clean
		ok := true
		switch d.Kind {
		case faults.Drop:
			// The aborted DMA consumed link time but landed nothing.
			rec.Drops++
			ok = false
		case faults.Corrupt:
			if err := g.WriteSlice(offset, src); err != nil {
				return 0, Record{}, err
			}
			corruptGlobal(g, offset, len(src), d)
			rec.Corruptions++
			ok = false
		case faults.Stall:
			if err := g.WriteSlice(offset, src); err != nil {
				return 0, Record{}, err
			}
			cost = stalledCost(clean, d)
			rec.Stalls++
		default:
			if err := g.WriteSlice(offset, src); err != nil {
				return 0, Record{}, err
			}
		}
		total += cost
		if ok && e.inj != nil {
			// End-to-end verification: re-hash the landed words against
			// the host-side checksum.
			sum, err := g.ChecksumRange(offset, len(src))
			if err != nil {
				return 0, Record{}, err
			}
			if sum != mem.Checksum(src) {
				rec.Corruptions++
				ok = false
			}
		}
		if done, err := e.finish(&rec, &total, ok, attempt); done {
			return total, rec, err
		}
	}
}

// Out copies length words from device global memory at offset back to the
// host as a single transaction, with the same verify-and-retry behaviour
// as In when a fault injector is attached.
func (e *Engine) Out(g *mem.Global, offset, length int) ([]mem.Word, time.Duration, error) {
	if err := g.CheckRead(offset, length); err != nil {
		return nil, 0, err
	}
	dst := make([]mem.Word, length)
	e.mu.Lock()
	defer e.mu.Unlock()
	d, _, err := e.out(g, offset, dst)
	return dst, d, err
}

// out is Out into dst without locking, for use by OutAsync; it
// additionally returns the transaction's Record for trace annotation.
func (e *Engine) out(g *mem.Global, offset int, dst []mem.Word) (time.Duration, Record, error) {
	length := len(dst)
	if err := g.CheckRead(offset, length); err != nil {
		return 0, Record{}, err
	}
	clean := e.Model().CostDuration(1, length)
	rec := Record{Direction: DeviceToHost, Scheme: e.scheme, Words: length, Offset: offset}
	var total time.Duration
	for attempt := 0; ; attempt++ {
		d := e.decide(faults.SiteD2H, attempt, length)
		cost := clean
		ok := true
		switch d.Kind {
		case faults.Drop:
			rec.Drops++
			ok = false
		case faults.Corrupt:
			if err := g.ReadInto(offset, dst); err != nil {
				return 0, Record{}, err
			}
			corruptHost(dst, d)
			rec.Corruptions++
			ok = false
		case faults.Stall:
			if err := g.ReadInto(offset, dst); err != nil {
				return 0, Record{}, err
			}
			cost = stalledCost(clean, d)
			rec.Stalls++
		default:
			if err := g.ReadInto(offset, dst); err != nil {
				return 0, Record{}, err
			}
		}
		total += cost
		if ok && e.inj != nil {
			sum, err := g.ChecksumRange(offset, length)
			if err != nil {
				return 0, Record{}, err
			}
			if mem.Checksum(dst) != sum {
				rec.Corruptions++
				ok = false
			}
		}
		if done, err := e.finish(&rec, &total, ok, attempt); done {
			return total, rec, err
		}
	}
}

// decide consults the injector for one transaction attempt; the fast path
// with no injector attached never allocates or hashes.
func (e *Engine) decide(site faults.Site, attempt, words int) faults.Decision {
	if e.inj == nil {
		return faults.Decision{}
	}
	d := e.inj.Transfer(site, attempt, words)
	if d.Kind == faults.Corrupt && words == 0 {
		// Nothing to corrupt; an empty transaction always verifies.
		d.Kind = faults.None
	}
	return d
}

// finish closes out one attempt: on success or retry exhaustion it records
// the transaction (so retry counts survive even into failures) and reports
// done; otherwise it charges the backoff wait and lets the caller retry.
func (e *Engine) finish(rec *Record, total *time.Duration, ok bool, attempt int) (bool, error) {
	if ok {
		rec.Attempts = attempt + 1
		rec.Cost = *total
		e.record(*rec)
		return true, nil
	}
	if attempt >= e.policy.MaxRetries {
		rec.Attempts = attempt + 1
		rec.Cost = *total
		e.record(*rec)
		return true, fmt.Errorf("%w: %s %d words at %d after %d attempts",
			ErrRetriesExhausted, rec.Direction, rec.Words, rec.Offset, rec.Attempts)
	}
	b := e.policy.backoff(attempt, e.jrng)
	*total += b
	rec.Backoff += b
	return false, nil
}

// corruptGlobal flips bits of one landed word per the decision.
func corruptGlobal(g *mem.Global, offset, length int, d faults.Decision) {
	if length <= 0 {
		return
	}
	idx := offset + absMod(d.WordIndex, length)
	v, err := g.Load(idx)
	if err != nil {
		return // range pre-flighted; unreachable
	}
	g.Store(idx, v^corruptMask(d)) //nolint:errcheck // in-range by construction
}

// corruptHost flips bits of one received word per the decision.
func corruptHost(dst []mem.Word, d faults.Decision) {
	if len(dst) == 0 {
		return
	}
	dst[absMod(d.WordIndex, len(dst))] ^= corruptMask(d)
}

// corruptMask returns the decision's XOR mask, never zero.
func corruptMask(d faults.Decision) mem.Word {
	if d.Mask == 0 {
		return 1
	}
	return mem.Word(d.Mask)
}

// stalledCost applies the decision's stall factor (defaulting to 2×).
func stalledCost(clean time.Duration, d faults.Decision) time.Duration {
	f := d.StallFactor
	if f < 1 {
		f = 2
	}
	return time.Duration(float64(clean) * f)
}

// absMod reduces i into [0, n) for any i.
func absMod(i, n int) int {
	m := i % n
	if m < 0 {
		m += n
	}
	return m
}

// InChunked copies src in ⌈len/chunk⌉ transactions, each paying α. This is
// the partitioned transfer style the paper's future work (§V) raises for
// data that exceeds global memory; the extra α per chunk is what an
// overlap-capable scheme tries to hide.
func (e *Engine) InChunked(g *mem.Global, offset int, src []mem.Word, chunk int) (time.Duration, error) {
	if chunk <= 0 {
		return 0, fmt.Errorf("transfer: chunk must be positive, got %d", chunk)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var total time.Duration
	for base := 0; base < len(src); base += chunk {
		end := base + chunk
		if end > len(src) {
			end = len(src)
		}
		d, _, err := e.in(g, offset+base, src[base:end])
		if err != nil {
			return total, err
		}
		total += d
	}
	return total, nil
}

// Stats returns the accumulated totals.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Trace returns a copy of the retained records (nil unless SetTrace(true)).
// Callers own the returned slice: mutating it cannot corrupt the engine's
// retained trace, and later transfers cannot append into its backing array.
func (e *Engine) Trace() []Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.trace == nil {
		return nil
	}
	return append([]Record(nil), e.trace...)
}

// Reset clears stats and trace; the trace-retention flag, fault injector
// and retry policy persist (Reset and Add/record stay symmetric: every
// field Add touches is zeroed here).
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = Stats{}
	e.trace = nil
}

func (e *Engine) record(r Record) {
	e.stats.Add(r)
	if e.keep {
		e.trace = append(e.trace, r)
	}
	e.mirror(r)
}

// mirror feeds one completed transaction into the metrics registry.
// Called under e.mu like record; a nil registry makes this free.
func (e *Engine) mirror(r Record) {
	if e.omet == nil {
		return
	}
	if r.Direction == HostToDevice {
		e.omet.Add("atgpu_transfer_in_transactions_total", 1)
		e.omet.Add("atgpu_transfer_in_words_total", int64(r.Words))
		e.omet.AddDuration("atgpu_transfer_in_ns_total", r.Cost)
		e.omet.Observe("atgpu_transfer_in_ns", r.Cost)
	} else {
		e.omet.Add("atgpu_transfer_out_transactions_total", 1)
		e.omet.Add("atgpu_transfer_out_words_total", int64(r.Words))
		e.omet.AddDuration("atgpu_transfer_out_ns_total", r.Cost)
		e.omet.Observe("atgpu_transfer_out_ns", r.Cost)
	}
	if r.Attempts > 1 {
		e.omet.Add("atgpu_transfer_retries_total", int64(r.Attempts-1))
	}
	if r.Corruptions > 0 {
		e.omet.Add("atgpu_faults_corrupt_total", int64(r.Corruptions))
	}
	if r.Drops > 0 {
		e.omet.Add("atgpu_faults_drop_total", int64(r.Drops))
	}
	if r.Stalls > 0 {
		e.omet.Add("atgpu_faults_stall_total", int64(r.Stalls))
	}
	if r.Backoff > 0 {
		e.omet.AddDuration("atgpu_transfer_backoff_ns_total", r.Backoff)
	}
}
