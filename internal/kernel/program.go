package kernel

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
)

// Program is a complete kernel: a finite instruction list executed by every
// thread of a launch, the number of registers each thread needs, and the
// number of shared-memory words each thread block allocates.
//
// SharedWords is the quantity the paper calls m when computing occupancy:
// a streaming multiprocessor can hold ℓ = min(⌊M/m⌋, H) blocks concurrently.
type Program struct {
	// Name identifies the kernel in traces, stats and error messages.
	Name string
	// Instrs is the instruction list. Execution begins at index 0 and
	// finishes when every lane has retired at an OpHalt.
	Instrs []Instr
	// NumRegs is the per-thread register file size; registers are
	// r0..r(NumRegs-1) and are zero-initialised at launch.
	NumRegs int
	// SharedWords is the per-block shared memory allocation in words.
	SharedWords int
	// Lines is an optional side table mapping each instruction index to the
	// source line it was lowered from (0 = unknown). When present it must be
	// the same length as Instrs; front ends that lower from a textual source
	// (the pseudocode compiler) populate it so diagnostics can point at the
	// offending source line rather than a raw pc.
	Lines []int32
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// Line returns the source line instruction pc was lowered from, or 0 when
// the program carries no line information (or pc is out of range).
func (p *Program) Line(pc int) int {
	if pc < 0 || pc >= len(p.Lines) {
		return 0
	}
	return int(p.Lines[pc])
}

// Disassemble renders the whole program with instruction indices, in the
// style of the paper's pseudocode listings but at the IR level.
func (p *Program) Disassemble() string { return string(p.AppendDisassembly(nil)) }

// AppendDisassembly appends the program's disassembly (Disassemble) to dst
// and returns the extended slice; the atgpud cache key hashes these bytes.
func (p *Program) AppendDisassembly(dst []byte) []byte {
	dst = slices.Grow(dst, 48+28*len(p.Instrs)) // lines average under 28 bytes
	dst = append(dst, "kernel "...)
	dst = append(dst, p.Name...)
	dst = strconv.AppendInt(append(dst, " (regs="...), int64(p.NumRegs), 10)
	dst = strconv.AppendInt(append(dst, ", shared="...), int64(p.SharedWords), 10)
	dst = append(dst, " words)\n"...)
	for i, in := range p.Instrs {
		// "%4d: ": the index right-aligned in four columns.
		for w := 1000; w > 1 && i < w; w /= 10 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(in.AppendText(append(dst, ": "...)), '\n')
	}
	return dst
}

// Validation errors returned by Validate.
var (
	ErrEmptyProgram   = errors.New("kernel: empty program")
	ErrNoHalt         = errors.New("kernel: program does not end with halt")
	ErrBadOpcode      = errors.New("kernel: invalid opcode")
	ErrBadRegister    = errors.New("kernel: register index out of range")
	ErrBadTarget      = errors.New("kernel: branch target out of range")
	ErrUnbalancedIf   = errors.New("kernel: unbalanced if.begin/if.end")
	ErrBadIfTarget    = errors.New("kernel: if.begin target must follow its if.end")
	ErrTooManyRegs    = errors.New("kernel: register file exceeds 256 registers")
	ErrNegativeShared = errors.New("kernel: negative shared memory size")
	ErrBadLineTable   = errors.New("kernel: line table length does not match instruction count")
	ErrBadAtomSpace   = errors.New("kernel: atomic address space must be AtomShared or AtomGlobal")
)

// Validate checks the static well-formedness of the program: every opcode
// defined, every register within the declared file, every branch target in
// range, and if.begin/if.end regions properly nested with each if.begin
// jumping just past its matching if.end (the single-conditional-block form
// the paper's pseudocode permits).
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return ErrEmptyProgram
	}
	if p.NumRegs < 0 || p.NumRegs > 256 {
		return ErrTooManyRegs
	}
	if p.SharedWords < 0 {
		return ErrNegativeShared
	}
	if len(p.Lines) != 0 && len(p.Lines) != len(p.Instrs) {
		return fmt.Errorf("%w: %d lines for %d instructions", ErrBadLineTable, len(p.Lines), len(p.Instrs))
	}
	if p.Instrs[len(p.Instrs)-1].Op != OpHalt {
		return ErrNoHalt
	}
	var ifStack []int
	for i, in := range p.Instrs {
		if !in.Op.Valid() {
			return fmt.Errorf("%w: at %d: %d", ErrBadOpcode, i, uint8(in.Op))
		}
		if err := p.checkRegs(i, in); err != nil {
			return err
		}
		switch in.Op {
		case OpJump, OpBrNZ:
			if in.Target < 0 || int(in.Target) >= len(p.Instrs) {
				return fmt.Errorf("%w: at %d: @%d", ErrBadTarget, i, in.Target)
			}
		case OpIfBegin:
			if in.Target < 0 || int(in.Target) > len(p.Instrs) {
				return fmt.Errorf("%w: at %d: @%d", ErrBadTarget, i, in.Target)
			}
			ifStack = append(ifStack, i)
		case OpAtomAdd, OpAtomMax, OpAtomExch, OpAtomCAS:
			if in.Imm != AtomShared && in.Imm != AtomGlobal {
				return fmt.Errorf("%w: at %d: imm=%d", ErrBadAtomSpace, i, in.Imm)
			}
		case OpIfEnd:
			if len(ifStack) == 0 {
				return fmt.Errorf("%w: stray if.end at %d", ErrUnbalancedIf, i)
			}
			begin := ifStack[len(ifStack)-1]
			ifStack = ifStack[:len(ifStack)-1]
			// The skip target of if.begin must be the instruction
			// immediately after this if.end, so that skipping the body
			// and falling through the body reconverge at the same point.
			if int(p.Instrs[begin].Target) != i+1 {
				return fmt.Errorf("%w: if.begin at %d targets @%d, want @%d",
					ErrBadIfTarget, begin, p.Instrs[begin].Target, i+1)
			}
		}
	}
	if len(ifStack) != 0 {
		return fmt.Errorf("%w: %d unclosed if.begin", ErrUnbalancedIf, len(ifStack))
	}
	return nil
}

func (p *Program) checkRegs(i int, in Instr) error {
	bad := func(r Reg) bool { return int(r) >= p.NumRegs }
	check := func(rs ...Reg) error {
		for _, r := range rs {
			if bad(r) {
				return fmt.Errorf("%w: at %d: r%d (file size %d)",
					ErrBadRegister, i, r, p.NumRegs)
			}
		}
		return nil
	}
	switch in.Op {
	case OpNop, OpBarrier, OpHalt, OpJump, OpIfEnd:
		return nil
	case OpConst, OpLaneID, OpBlockID, OpNumBlocks, OpBlockDim:
		return check(in.Rd)
	case OpMov:
		return check(in.Rd, in.Ra)
	case OpAddI, OpMulI, OpDivI, OpModI, OpShlI, OpShrI, OpAndI,
		OpSltI, OpSleI, OpSeqI, OpSneI:
		return check(in.Rd, in.Ra)
	case OpLdGlobal, OpLdShared:
		return check(in.Rd, in.Ra)
	case OpStGlobal, OpStShared:
		return check(in.Ra, in.Rb)
	case OpBrNZ, OpIfBegin:
		return check(in.Ra)
	case OpAtomAdd, OpAtomMax, OpAtomExch, OpAtomCAS:
		return check(in.Rd, in.Ra, in.Rb)
	default: // three-register arithmetic
		return check(in.Rd, in.Ra, in.Rb)
	}
}

// CountStatic returns the number of instructions of each opcode, useful for
// relating a program to the model's operation-count metric tᵢ.
func (p *Program) CountStatic() map[Op]int {
	m := make(map[Op]int)
	for _, in := range p.Instrs {
		m[in.Op]++
	}
	return m
}
