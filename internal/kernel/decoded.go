package kernel

import "fmt"

// DInstr is one instruction of a decoded program: the operand registers are
// pre-multiplied into register-file column bases for a fixed warp width, so
// the interpreter's hot loop indexes the flattened register file directly
// instead of recomputing int(reg)*width on every issue.
type DInstr struct {
	Op         Op
	Rd, Ra, Rb Reg   // the operand registers, which key the symbolic state
	D          int32 // Rd column base: int(Rd) * width
	A          int32 // Ra column base
	B          int32 // Rb column base
	Imm        Word
	Target     int32
	// Sem is Op.Semantics(), resolved once: nil for a non-compute opcode.
	Sem *Sem
}

// Decoded is the flat execution form of a Program for one warp width. It is
// immutable after Decode and safe to share across launches of the same
// program on the same device.
type Decoded struct {
	Prog  *Program
	Width int
	Ins   []DInstr
}

// Decode lowers p into its flat execution form for warps of the given
// width. The program must already be valid (see Program.Validate); Decode
// only rejects parameters that would make the column bases meaningless.
func Decode(p *Program, width int) (*Decoded, error) {
	if p == nil {
		return nil, fmt.Errorf("kernel: decode of nil program")
	}
	if width <= 0 {
		return nil, fmt.Errorf("kernel: decode width %d", width)
	}
	d := &Decoded{Prog: p, Width: width, Ins: make([]DInstr, len(p.Instrs))}
	for i, in := range p.Instrs {
		d.Ins[i] = DInstr{
			Op:     in.Op,
			Rd:     in.Rd,
			Ra:     in.Ra,
			Rb:     in.Rb,
			D:      int32(int(in.Rd) * width),
			A:      int32(int(in.Ra) * width),
			B:      int32(int(in.Rb) * width),
			Imm:    in.Imm,
			Target: in.Target,
			Sem:    in.Op.Semantics(),
		}
	}
	return d, nil
}
