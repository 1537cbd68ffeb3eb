// Package kernel defines the instruction set, program representation and
// structured builder for GPU kernels executed by the simulated device in
// package simgpu, and analysed on the ATGPU abstract model in package core.
//
// The instruction set deliberately mirrors what the ATGPU paper's pseudocode
// can express: register arithmetic, global-memory block transfers (the "⇐"
// operator), shared-memory access (the "←" operator), barriers, uniform
// loops, and a single-block conditional (the paper restricts if-statements
// to one conditional block "in order to reduce diverging execution paths").
//
// A kernel is a list of instructions for a single thread; the device runs
// one instance per core, with the b cores of a multiprocessor executing in
// lockstep exactly as the model prescribes.
package kernel

import "strconv"

// Word is the machine word of the model. The ATGPU model measures all
// memory (shared memory M, global memory G, transfer volumes I and O) in
// words; we fix a word to a 64-bit signed integer.
type Word = int64

// Reg names a per-thread register. Registers hold one Word each and are
// private to a thread, standing in for the register space the paper notes
// is reserved per core in shared memory.
type Reg uint8

// Op is an instruction opcode.
type Op uint8

// Opcode space. Arithmetic instructions operate on registers; *I variants
// take the second operand from the instruction's immediate field.
const (
	OpNop Op = iota

	// OpConst loads Imm into Rd.
	OpConst
	// OpMov copies Ra into Rd.
	OpMov

	// Three-register arithmetic: Rd <- Ra (op) Rb.
	OpAdd
	OpSub
	OpMul
	OpDiv // quotient; division by zero traps the kernel
	OpMod // remainder; division by zero traps the kernel
	OpMin
	OpMax
	OpAnd
	OpOr
	OpXor
	OpShl // shift amounts are masked to [0,63]
	OpShr // arithmetic shift right

	// Register-immediate arithmetic: Rd <- Ra (op) Imm.
	OpAddI
	OpMulI
	OpDivI
	OpModI
	OpShlI
	OpShrI
	OpAndI

	// Comparisons set Rd to 1 or 0.
	OpSlt // Rd <- Ra < Rb
	OpSle // Rd <- Ra <= Rb
	OpSeq // Rd <- Ra == Rb
	OpSne // Rd <- Ra != Rb
	OpSltI
	OpSleI
	OpSeqI
	OpSneI

	// Thread geometry. The model identifies a thread by the pair
	// (multiprocessor index i, core index j); a kernel launch supplies a
	// grid of thread blocks, one warp of B lanes per block.
	OpLaneID    // Rd <- core index j within the multiprocessor (0..b-1)
	OpBlockID   // Rd <- thread block index (0..numBlocks-1)
	OpNumBlocks // Rd <- number of thread blocks in the launch
	OpBlockDim  // Rd <- b, the warp width / cores per multiprocessor

	// Memory. Addresses are in words and are taken from registers, so
	// access patterns (coalescing, bank conflicts) are data-dependent and
	// observed by the simulator, exactly as the model's cost metrics
	// require.
	OpLdGlobal // Rd <- global[Ra]     ("x ⇐ g" in paper pseudocode)
	OpStGlobal // global[Ra] <- Rb
	OpLdShared // Rd <- shared[Ra]     ("x ← _s" in paper pseudocode)
	OpStShared // shared[Ra] <- Rb

	// OpBarrier synchronises all warps of a thread block. With the
	// model's one-warp blocks it costs one instruction slot; the device
	// still accounts for it so multi-warp extensions stay correct.
	OpBarrier

	// Control flow. OpJump is unconditional. OpBrNZ branches when Ra is
	// non-zero and must be warp-uniform (all active lanes agree); the
	// builder uses it only for loop back-edges, matching the paper's
	// uniform wrapper loops. Divergence is expressed only through
	// OpIfBegin/OpIfEnd, the paper's single-block if-statement: lanes
	// whose Ra is zero are masked off until the matching OpIfEnd.
	OpJump    // pc <- Target
	OpBrNZ    // if Ra != 0 { pc <- Target } (uniform)
	OpIfBegin // mask &= (Ra != 0); if mask empty pc <- Target (past OpIfEnd)
	OpIfEnd   // restore mask saved by matching OpIfBegin

	// OpHalt retires the warp.
	OpHalt

	// Atomics. Each performs a read-modify-write on one memory cell per
	// lane: Ra holds the address, Rb the operand, and Rd receives the old
	// cell value. Imm selects the address space (AtomShared or AtomGlobal).
	// Conflicting lanes are serialised by the device — per bank for shared
	// atomics, per address for global atomics — in ascending lane order, so
	// results are deterministic.
	OpAtomAdd  // Rd <- mem[Ra]; mem[Ra] <- Rd + Rb
	OpAtomMax  // Rd <- mem[Ra]; mem[Ra] <- max(Rd, Rb)
	OpAtomExch // Rd <- mem[Ra]; mem[Ra] <- Rb
	// OpAtomCAS compares against Rd's incoming value: if mem[Ra] == Rd then
	// mem[Ra] <- Rb; Rd always receives the old cell value.
	OpAtomCAS

	opCount // sentinel; keep last
)

// Address-space selectors carried in an atomic instruction's Imm field.
const (
	// AtomShared targets the block's shared memory.
	AtomShared Word = 0
	// AtomGlobal targets device global memory.
	AtomGlobal Word = 1
)

var opNames = [...]string{
	OpNop:       "nop",
	OpConst:     "const",
	OpMov:       "mov",
	OpAdd:       "add",
	OpSub:       "sub",
	OpMul:       "mul",
	OpDiv:       "div",
	OpMod:       "mod",
	OpMin:       "min",
	OpMax:       "max",
	OpAnd:       "and",
	OpOr:        "or",
	OpXor:       "xor",
	OpShl:       "shl",
	OpShr:       "shr",
	OpAddI:      "addi",
	OpMulI:      "muli",
	OpDivI:      "divi",
	OpModI:      "modi",
	OpShlI:      "shli",
	OpShrI:      "shri",
	OpAndI:      "andi",
	OpSlt:       "slt",
	OpSle:       "sle",
	OpSeq:       "seq",
	OpSne:       "sne",
	OpSltI:      "slti",
	OpSleI:      "slei",
	OpSeqI:      "seqi",
	OpSneI:      "snei",
	OpLaneID:    "laneid",
	OpBlockID:   "blockid",
	OpNumBlocks: "numblocks",
	OpBlockDim:  "blockdim",
	OpLdGlobal:  "ld.global",
	OpStGlobal:  "st.global",
	OpLdShared:  "ld.shared",
	OpStShared:  "st.shared",
	OpBarrier:   "barrier",
	OpJump:      "jump",
	OpBrNZ:      "brnz",
	OpIfBegin:   "if.begin",
	OpIfEnd:     "if.end",
	OpHalt:      "halt",
	OpAtomAdd:   "atom.add",
	OpAtomMax:   "atom.max",
	OpAtomExch:  "atom.exch",
	OpAtomCAS:   "atom.cas",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op(" + strconv.Itoa(int(o)) + ")"
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < opCount }

// IsMemory reports whether the opcode accesses global or shared memory.
func (o Op) IsMemory() bool {
	switch o {
	case OpLdGlobal, OpStGlobal, OpLdShared, OpStShared:
		return true
	}
	return false
}

// IsGlobalMemory reports whether the opcode accesses global memory; such
// instructions are the ones counted by the model's I/O metric qᵢ.
func (o Op) IsGlobalMemory() bool { return o == OpLdGlobal || o == OpStGlobal }

// IsAtomic reports whether the opcode is a read-modify-write atomic; the
// targeted address space is the instruction's Imm field (AtomShared or
// AtomGlobal).
func (o Op) IsAtomic() bool {
	switch o {
	case OpAtomAdd, OpAtomMax, OpAtomExch, OpAtomCAS:
		return true
	}
	return false
}

// IsControl reports whether the opcode alters the program counter or the
// active mask.
func (o Op) IsControl() bool {
	switch o {
	case OpJump, OpBrNZ, OpIfBegin, OpIfEnd, OpHalt:
		return true
	}
	return false
}

// Instr is one kernel instruction. Field use depends on the opcode:
// arithmetic uses Rd/Ra/Rb (or Rd/Ra/Imm for immediate forms), memory
// uses Rd or Rb for data and Ra for the address, control flow uses Target.
type Instr struct {
	Op     Op
	Rd     Reg   // destination register
	Ra     Reg   // first source register / address register
	Rb     Reg   // second source register / store-data register
	Imm    Word  // immediate operand
	Target int32 // branch target (instruction index)
}

// String renders the instruction in assembly-like form.
func (in Instr) String() string { return string(in.AppendText(nil)) }

// AppendText appends the instruction's assembly-like text (String) to dst
// and returns the extended slice. The text is part of the atgpud cache-key
// contract: the key hashes every kernel's disassembly.
func (in Instr) AppendText(dst []byte) []byte {
	dst = append(dst, in.Op.String()...)
	switch in.Op {
	case OpNop, OpBarrier, OpHalt, OpIfEnd:
		return dst
	case OpConst:
		return appendImm(appendReg(dst, " r", in.Rd), in.Imm)
	case OpMov:
		return appendReg(appendReg(dst, " r", in.Rd), ", r", in.Ra)
	case OpLaneID, OpBlockID, OpNumBlocks, OpBlockDim:
		return appendReg(dst, " r", in.Rd)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpMin, OpMax, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpSlt, OpSle, OpSeq, OpSne:
		return appendReg(appendReg(appendReg(dst, " r", in.Rd), ", r", in.Ra), ", r", in.Rb)
	case OpAddI, OpMulI, OpDivI, OpModI, OpShlI, OpShrI, OpAndI,
		OpSltI, OpSleI, OpSeqI, OpSneI:
		return appendImm(appendReg(appendReg(dst, " r", in.Rd), ", r", in.Ra), in.Imm)
	case OpLdGlobal, OpLdShared:
		return append(appendReg(appendReg(dst, " r", in.Rd), ", [r", in.Ra), ']')
	case OpStGlobal, OpStShared:
		return appendReg(appendReg(dst, " [r", in.Ra), "], r", in.Rb)
	case OpJump:
		return strconv.AppendInt(append(dst, " @"...), int64(in.Target), 10)
	case OpBrNZ, OpIfBegin:
		dst = appendReg(dst, " r", in.Ra)
		return strconv.AppendInt(append(dst, ", @"...), int64(in.Target), 10)
	case OpAtomAdd, OpAtomMax, OpAtomExch, OpAtomCAS:
		space := ", [shared:r"
		if in.Imm == AtomGlobal {
			space = ", [global:r"
		}
		return appendReg(appendReg(appendReg(dst, " r", in.Rd), space, in.Ra), "], r", in.Rb)
	default:
		dst = appendReg(dst, " rd=", in.Rd)
		dst = appendReg(dst, " ra=", in.Ra)
		dst = appendReg(dst, " rb=", in.Rb)
		dst = strconv.AppendInt(append(dst, " imm="...), in.Imm, 10)
		return strconv.AppendInt(append(dst, " tgt="...), int64(in.Target), 10)
	}
}

// appendReg appends sep and register r's number.
func appendReg(dst []byte, sep string, r Reg) []byte {
	return strconv.AppendUint(append(dst, sep...), uint64(r), 10)
}

// appendImm appends ", " and the immediate v.
func appendImm(dst []byte, v Word) []byte {
	return strconv.AppendInt(append(dst, ", "...), v, 10)
}
