package kernel_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"atgpu/internal/experiments"
	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
)

// fmtInstrString is the fmt-based Instr.String the append-built text
// replaced, kept verbatim: the atgpud cache key hashes the disassembly, so
// the text must not move by a byte.
func fmtInstrString(in kernel.Instr) string {
	switch in.Op {
	case kernel.OpNop, kernel.OpBarrier, kernel.OpHalt:
		return in.Op.String()
	case kernel.OpConst:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
	case kernel.OpMov, kernel.OpLaneID, kernel.OpBlockID, kernel.OpNumBlocks, kernel.OpBlockDim:
		if in.Op == kernel.OpMov {
			return fmt.Sprintf("%s r%d, r%d", in.Op, in.Rd, in.Ra)
		}
		return fmt.Sprintf("%s r%d", in.Op, in.Rd)
	case kernel.OpAdd, kernel.OpSub, kernel.OpMul, kernel.OpDiv, kernel.OpMod, kernel.OpMin,
		kernel.OpMax, kernel.OpAnd, kernel.OpOr, kernel.OpXor, kernel.OpShl, kernel.OpShr,
		kernel.OpSlt, kernel.OpSle, kernel.OpSeq, kernel.OpSne:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Ra, in.Rb)
	case kernel.OpAddI, kernel.OpMulI, kernel.OpDivI, kernel.OpModI, kernel.OpShlI, kernel.OpShrI,
		kernel.OpAndI, kernel.OpSltI, kernel.OpSleI, kernel.OpSeqI, kernel.OpSneI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Ra, in.Imm)
	case kernel.OpLdGlobal:
		return fmt.Sprintf("%s r%d, [r%d]", in.Op, in.Rd, in.Ra)
	case kernel.OpStGlobal:
		return fmt.Sprintf("%s [r%d], r%d", in.Op, in.Ra, in.Rb)
	case kernel.OpLdShared:
		return fmt.Sprintf("%s r%d, [r%d]", in.Op, in.Rd, in.Ra)
	case kernel.OpStShared:
		return fmt.Sprintf("%s [r%d], r%d", in.Op, in.Ra, in.Rb)
	case kernel.OpJump:
		return fmt.Sprintf("%s @%d", in.Op, in.Target)
	case kernel.OpBrNZ:
		return fmt.Sprintf("%s r%d, @%d", in.Op, in.Ra, in.Target)
	case kernel.OpIfBegin:
		return fmt.Sprintf("%s r%d, @%d", in.Op, in.Ra, in.Target)
	case kernel.OpIfEnd:
		return in.Op.String()
	case kernel.OpAtomAdd, kernel.OpAtomMax, kernel.OpAtomExch, kernel.OpAtomCAS:
		space := "shared"
		if in.Imm == kernel.AtomGlobal {
			space = "global"
		}
		return fmt.Sprintf("%s r%d, [%s:r%d], r%d", in.Op, in.Rd, space, in.Ra, in.Rb)
	default:
		return fmt.Sprintf("%s rd=%d ra=%d rb=%d imm=%d tgt=%d",
			in.Op, in.Rd, in.Ra, in.Rb, in.Imm, in.Target)
	}
}

// fmtOpString is the fmt-based Op.String fallback for undefined opcodes.
func fmtOpString(o kernel.Op) string {
	if o.Valid() {
		return o.String()
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// fmtDisassemble is the fmt-based Program.Disassemble, kept verbatim.
func fmtDisassemble(p *kernel.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel %s (regs=%d, shared=%d words)\n",
		p.Name, p.NumRegs, p.SharedWords)
	for i, in := range p.Instrs {
		fmt.Fprintf(&sb, "%4d: %s\n", i, fmtInstrString(in))
	}
	return sb.String()
}

// TestInstrTextMatchesFmt checks the append-built text against the fmt
// formatter on every opcode byte (defined or not, so the default branch is
// covered), with edge registers, immediates — negative, zero, both atomic
// spaces, one that is neither, and the int64 extremes — and targets.
func TestInstrTextMatchesFmt(t *testing.T) {
	imms := []kernel.Word{0, 1, -1, kernel.AtomShared, kernel.AtomGlobal, 2, 4096, -4096,
		math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	regs := []kernel.Reg{0, 9, 10, 99, 100, 255}
	targets := []int32{0, 7, 1000, -1, math.MaxInt32, math.MinInt32}
	n := 0
	for op := 0; op < 256; op++ {
		for i, imm := range imms {
			for j, tgt := range targets {
				r := regs[(i+j)%len(regs)]
				in := kernel.Instr{Op: kernel.Op(op), Rd: r, Ra: regs[(i+1)%len(regs)],
					Rb: regs[(j+2)%len(regs)], Imm: imm, Target: tgt}
				want := fmtInstrString(in)
				if got := in.String(); got != want {
					t.Fatalf("%#v: String = %q, fmt gives %q", in, got, want)
				}
				if got := string(in.AppendText([]byte("x"))); got != "x"+want {
					t.Fatalf("%#v: AppendText onto a prefix = %q, want %q", in, got, "x"+want)
				}
				n++
			}
		}
		if got, want := kernel.Op(op).String(), fmtOpString(kernel.Op(op)); got != want {
			t.Errorf("Op(%d).String() = %q, fmt gives %q", op, got, want)
		}
	}
	if n == 0 {
		t.Fatal("no instructions checked")
	}
}

// TestDisassembleMatchesFmt checks Disassemble, and AppendDisassembly onto
// a non-empty slice, against the fmt formatter on every registry kernel at
// its default and full sweep sizes, on every preset's warp width, and on
// programs long enough that the index column overflows its four places.
func TestDisassembleMatchesFmt(t *testing.T) {
	widths := map[int]bool{}
	for _, dev := range append(simgpu.Presets(), simgpu.Tiny()) {
		widths[dev.WarpWidth] = true
	}
	checked := 0
	check := func(p *kernel.Program) {
		t.Helper()
		want := fmtDisassemble(p)
		if got := p.Disassemble(); got != want {
			t.Fatalf("%s: Disassemble differs from the fmt formatter:\n%s\nwant\n%s", p.Name, got, want)
		}
		if got := string(p.AppendDisassembly([]byte("#"))); got != "#"+want {
			t.Fatalf("%s: AppendDisassembly onto a prefix differs", p.Name)
		}
		checked++
	}
	for _, w := range experiments.Workloads() {
		for _, full := range []bool{false, true} {
			sizes, err := experiments.Config{Full: full}.SweepSizes(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range sizes {
				for width := range widths {
					p, _, err := w.Kernel(n, width)
					if err != nil {
						continue // sizes a width cannot launch (matmul n % b ≠ 0)
					}
					check(p)
				}
			}
		}
	}
	long := &kernel.Program{Name: "long", NumRegs: 3, SharedWords: 0}
	for i := 0; i < 12345; i++ {
		long.Instrs = append(long.Instrs, kernel.Instr{Op: kernel.OpAddI, Rd: 1, Ra: 2, Imm: int64(i - 6000)})
	}
	long.Instrs = append(long.Instrs, kernel.Instr{Op: kernel.OpHalt})
	check(long)
	check(&kernel.Program{Name: ""})
	if checked < len(experiments.Workloads()) {
		t.Fatalf("checked %d programs, want at least one per workload", checked)
	}
}
