package algorithms

import (
	"errors"
	"testing"
	"testing/quick"
)

// ooc is the out-of-core reduction of n words in chunks of at most chunk
// words: the reduce split in ⌈n/chunk⌉ chunks on streams streams.
func ooc(t testing.TB, n, chunk, streams int) Chunked {
	return plan(t, Reduce{N: n}.Split, ceilDiv(n, chunk), streams)
}

func TestOutOfCoreReduceCorrectness(t *testing.T) {
	for _, tc := range []struct{ n, chunk int }{
		{100, 16},
		{128, 32},
		{1000, 64},
		{1000, 1000},  // single chunk
		{1000, 10000}, // chunk larger than input
		{17, 4},
	} {
		in := randWords(tc.n, int64(tc.n))
		for _, streams := range []int{1, 2} {
			p := ooc(t, tc.n, tc.chunk, streams)
			_, _, sum := runPlan(t, p, in)
			if want := ReduceReference(in); sum != want {
				t.Fatalf("n=%d chunk=%d streams=%d: sum = %d, want %d", tc.n, tc.chunk, streams, sum, want)
			}
			// One partial per chunk.
			if want := ceilDiv(tc.n, tc.chunk); p.OutWords() != want {
				t.Fatalf("n=%d chunk=%d: chunks = %d, want %d", tc.n, tc.chunk, p.OutWords(), want)
			}
			if words, _ := p.GlobalWords(); words > streams*(tc.chunk+ceilDiv(tc.chunk, tinyWidth)+2*tinyWidth) {
				t.Fatalf("n=%d chunk=%d streams=%d: footprint %d words exceeds the chunk bound", tc.n, tc.chunk, streams, words)
			}
		}
	}
}

// The serial schedule is the plain sum of its transfers, kernels and one
// σ; the overlapped schedule is never slower than it, and never faster
// than the device's busy time (the kernels do not overlap each other).
func TestOverlapScheduleBounds(t *testing.T) {
	in := randWords(1000, 5)
	seq, _, _ := runPlan(t, ooc(t, 1000, 64, 1), in)
	pipe, _, _ := runPlan(t, ooc(t, 1000, 64, 2), in)
	if got, want := seq.TotalTime(), seq.TransferTime()+seq.KernelTime()+seq.SyncTime(); got != want {
		t.Fatalf("serial %v, want transfer+kernel+σ = %v", got, want)
	}
	if seq.SyncTime() != pipe.SyncTime() || seq.Rounds() != 1 {
		t.Fatalf("σ charged %v serial (%d rounds) vs %v overlapped, want once each",
			seq.SyncTime(), seq.Rounds(), pipe.SyncTime())
	}
	if pipe.TotalTime() > seq.TotalTime() {
		t.Fatalf("overlapped %v slower than serial %v", pipe.TotalTime(), seq.TotalTime())
	}
	if lower := pipe.KernelTime() + pipe.SyncTime(); pipe.TotalTime() < lower {
		t.Fatalf("overlapped %v beats the device busy bound %v", pipe.TotalTime(), lower)
	}
}

// A bad out-of-core plan fails Run with its sentinel: no chunks, an input
// of the wrong length, or a chunk larger than the device.
func TestOutOfCoreValidation(t *testing.T) {
	h := newTestHost(t, 1024)
	if _, err := plan(t, Reduce{N: 10}.Split, 0, 1).Run(h, nil, make([]Word, 10)); !errors.Is(err, ErrBadSize) {
		t.Errorf("zero chunks: %v", err)
	}
	p := ooc(t, 10, 4, 1)
	if _, err := p.Run(h, make([]Word, p.OutWords()), make([]Word, 5)); !errors.Is(err, ErrBadShape) {
		t.Errorf("length mismatch: %v", err)
	}
	// One chunk of the whole input on a 256-word device.
	big := ooc(t, 10000, 10000, 1)
	if _, err := big.Run(newTestHost(t, 256), make([]Word, big.OutWords()), make([]Word, 10000)); !errors.Is(err, ErrDoesNotFit) {
		t.Errorf("oversized chunk: %v", err)
	}
}

func TestAnalyzeSerialComposition(t *testing.T) {
	// The out-of-core analysis must be the concatenation of per-chunk
	// in-core analyses: same total transfer, R = Σ per-chunk rounds.
	p := ooc(t, 1000, 256, 1)
	params := tinyParams(64)
	a, err := p.Analyze(params)
	if err != nil {
		t.Fatal(err)
	}
	// Four chunks of 250 words each.
	sub, err := (Reduce{N: 250}).Analyze(params)
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := 4 * sub.R()
	wantTransfer := 4 * sub.TotalTransferWords()
	if a.R() != wantRounds {
		t.Fatalf("R = %d, want %d", a.R(), wantRounds)
	}
	if a.TotalTransferWords() != wantTransfer {
		t.Fatalf("transfer = %d, want %d", a.TotalTransferWords(), wantTransfer)
	}
	// Every chunk's input words eventually cross the link: Σ Iᵢ = n.
	inWords := 0
	for _, r := range a.Rounds {
		inWords += r.InWords
	}
	if inWords != 1000 {
		t.Fatalf("Σ Iᵢ = %d, want n = 1000", inWords)
	}
}

// The out-of-core analysis rejects an empty input and a zero chunk count.
func TestAnalyzeSerialValidation(t *testing.T) {
	p := tinyParams(4)
	if _, err := plan(t, Reduce{N: 0}.Split, 1, 1).Analyze(p); !errors.Is(err, ErrBadSize) {
		t.Errorf("n=0: %v", err)
	}
	if _, err := plan(t, Reduce{N: 4}.Split, 0, 1).Analyze(p); !errors.Is(err, ErrBadSize) {
		t.Errorf("chunks=0: %v", err)
	}
}

// Property: out-of-core and in-core reductions agree for any chunking,
// and overlapping never slows the schedule down.
func TestOutOfCoreMatchesInCoreProperty(t *testing.T) {
	f := func(seed int64, nRaw, chunkRaw uint8) bool {
		n := int(nRaw)%200 + 2
		chunk := int(chunkRaw)%64 + 4
		in := randWords(n, seed)
		seq, _, sum := runPlan(t, ooc(t, n, chunk, 1), in)
		pipe, _, pipeSum := runPlan(t, ooc(t, n, chunk, 2), in)
		want := ReduceReference(in)
		return sum == want && pipeSum == want && pipe.TotalTime() <= seq.TotalTime()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
