package mem

import "testing"

// BenchmarkTransactions measures coalescing analysis over a 32-lane warp,
// the per-access hot path of the simulator's global memory model.
func BenchmarkTransactions(b *testing.B) {
	run := func(b *testing.B, stride int) {
		addrs := make([]int, 32)
		active := make([]bool, 32)
		for i := range addrs {
			addrs[i] = i * stride
			active[i] = true
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if Transactions(addrs, active, 32) == 0 {
				b.Fatal("no transactions")
			}
		}
	}
	b.Run("coalesced", func(b *testing.B) { run(b, 1) })
	b.Run("scattered", func(b *testing.B) { run(b, 32) })
}

// BenchmarkConflictDegree measures bank-conflict analysis.
func BenchmarkConflictDegree(b *testing.B) {
	s, err := NewShared(1024, 32)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]int, 32)
	active := make([]bool, 32)
	for i := range addrs {
		addrs[i] = i * 32 // all in bank 0: worst case
		active[i] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.ConflictDegree(addrs, active) != 32 {
			b.Fatal("wrong degree")
		}
	}
}

// BenchmarkGlobalSlice measures bulk host↔device copies.
func BenchmarkGlobalSlice(b *testing.B) {
	g, err := NewGlobal(1<<20, 32)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]Word, 1<<16)
	b.SetBytes(int64(len(buf) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteSlice(0, buf); err != nil {
			b.Fatal(err)
		}
		if err := g.ReadInto(0, buf); err != nil {
			b.Fatal(err)
		}
	}
}
