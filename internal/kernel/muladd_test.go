package kernel

import (
	"math"
	"slices"
	"testing"
)

// mulAddColumn returns a column of 1 + width%64 lanes whose first three
// lanes are w0, w1 and w2, as fuzzed, and whose lane l ≥ 3 is w(l mod 3)
// with l mixed into its low bits, so every lane differs.
func mulAddColumn(width uint8, w0, w1, w2 Word) []Word {
	col := make([]Word, 1+int(width)%64)
	ws := [3]Word{w0, w1, w2}
	for l := range col {
		col[l] = ws[l%3]
		if l >= 3 {
			col[l] ^= Word(l)
		}
	}
	return col
}

// FuzzMulAdd checks the fused pair against the table: MulAdd's t and acc
// equal OpMulI's column on the row value v followed by OpAdd's column, on
// separate columns and with t aliasing y.
func FuzzMulAdd(f *testing.F) {
	const minW, maxW = math.MinInt64, math.MaxInt64
	f.Add(uint8(32), int64(minW), int64(-1), int64(3037000500), int64(maxW), int64(minW), int64(1), int64(-1))
	f.Add(uint8(7), int64(-1), int64(maxW), int64(1<<32), int64(0), int64(-1), int64(maxW), int64(minW))
	f.Add(uint8(3), int64(1<<33), int64(-(1 << 33)), int64(2), int64(maxW), int64(minW), int64(0), int64(1<<31))
	f.Add(uint8(0), int64(5), int64(0), int64(0), int64(maxW), int64(0), int64(0), int64(3))
	f.Fuzz(func(t *testing.T, width uint8, y0, y1, y2, a0, a1, a2, v int64) {
		y := mulAddColumn(width, y0, y1, y2)
		acc := mulAddColumn(width, a0, a1, a2)
		wantT := make([]Word, len(y))
		OpMulI.Semantics().Column(wantT, y, nil, v)
		wantAcc := make([]Word, len(acc))
		OpAdd.Semantics().Column(wantAcc, acc, wantT, 0)

		gotT, gotAcc := make([]Word, len(y)), slices.Clone(acc)
		MulAdd(gotT, gotAcc, y, v)
		if !slices.Equal(gotT, wantT) || !slices.Equal(gotAcc, wantAcc) {
			t.Fatalf("MulAdd(y=%v, acc=%v, v=%d) = t %v, acc %v; want t %v, acc %v", y, acc, v, gotT, gotAcc, wantT, wantAcc)
		}
		// t is y: each lane reads y before writing t.
		inPlace, gotAcc := slices.Clone(y), slices.Clone(acc)
		MulAdd(inPlace, gotAcc, inPlace, v)
		if !slices.Equal(inPlace, wantT) || !slices.Equal(gotAcc, wantAcc) {
			t.Fatalf("MulAdd in place (y=%v, acc=%v, v=%d) = t %v, acc %v; want t %v, acc %v", y, acc, v, inPlace, gotAcc, wantT, wantAcc)
		}
	})
}
