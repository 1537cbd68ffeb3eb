package simgpu

import (
	"testing"
	"testing/quick"

	"atgpu/internal/kernel"
)

// TestDifferentialRandomPrograms generates random straight-line arithmetic
// programs from a byte recipe, runs them on the simulated device, and
// compares every lane's final register state against a direct per-lane
// evaluation in Go. Any divergence between the device interpreter and Go
// semantics — operand routing, masking, immediate handling — fails the
// property.
func TestDifferentialRandomPrograms(t *testing.T) {
	const (
		regs  = 6
		width = 4
	)

	// buildAndEval constructs the kernel and, in lockstep, evaluates the
	// expected register file for each lane.
	buildAndEval := func(recipe []byte) (*kernel.Program, [][]int64) {
		kb := kernel.NewBuilder("diff", 0)
		var regIDs [regs]kernel.Reg
		for i := range regIDs {
			regIDs[i] = kb.Reg()
		}
		expect := make([][]int64, width)
		for l := range expect {
			expect[l] = make([]int64, regs)
		}

		// Seed registers with lane-dependent values.
		for i := range regIDs {
			kb.LaneID(regIDs[i])
			kb.Add(regIDs[i], regIDs[i], kernel.Imm(int64(i*3+1)))
			for l := 0; l < width; l++ {
				expect[l][i] = int64(l) + int64(i*3+1)
			}
		}

		for pos := 0; pos+2 < len(recipe); pos += 3 {
			op := recipe[pos] % 12
			rd := int(recipe[pos+1]) % regs
			rs := int(recipe[pos+2]) % regs
			imm := int64(recipe[pos+2]%7) + 1
			switch op {
			case 0:
				kb.Add(regIDs[rd], regIDs[rd], kernel.R(regIDs[rs]))
				for l := 0; l < width; l++ {
					expect[l][rd] += expect[l][rs]
				}
			case 1:
				kb.Sub(regIDs[rd], regIDs[rd], kernel.R(regIDs[rs]))
				for l := 0; l < width; l++ {
					expect[l][rd] -= expect[l][rs]
				}
			case 2:
				kb.Mul(regIDs[rd], regIDs[rd], kernel.R(regIDs[rs]))
				for l := 0; l < width; l++ {
					expect[l][rd] *= expect[l][rs]
				}
			case 3:
				kb.Add(regIDs[rd], regIDs[rd], kernel.Imm(imm))
				for l := 0; l < width; l++ {
					expect[l][rd] += imm
				}
			case 4:
				kb.Mul(regIDs[rd], regIDs[rd], kernel.Imm(imm))
				for l := 0; l < width; l++ {
					expect[l][rd] *= imm
				}
			case 5:
				kb.Div(regIDs[rd], regIDs[rd], kernel.Imm(imm))
				for l := 0; l < width; l++ {
					expect[l][rd] /= imm
				}
			case 6:
				kb.Mod(regIDs[rd], regIDs[rd], kernel.Imm(imm))
				for l := 0; l < width; l++ {
					expect[l][rd] %= imm
				}
			case 7:
				kb.Min(regIDs[rd], regIDs[rd], kernel.R(regIDs[rs]))
				for l := 0; l < width; l++ {
					if expect[l][rs] < expect[l][rd] {
						expect[l][rd] = expect[l][rs]
					}
				}
			case 8:
				kb.Max(regIDs[rd], regIDs[rd], kernel.R(regIDs[rs]))
				for l := 0; l < width; l++ {
					if expect[l][rs] > expect[l][rd] {
						expect[l][rd] = expect[l][rs]
					}
				}
			case 9:
				kb.Xor(regIDs[rd], regIDs[rd], kernel.R(regIDs[rs]))
				for l := 0; l < width; l++ {
					expect[l][rd] ^= expect[l][rs]
				}
			case 10:
				kb.And(regIDs[rd], regIDs[rd], kernel.Imm(imm))
				for l := 0; l < width; l++ {
					expect[l][rd] &= imm
				}
			case 11:
				kb.Slt(regIDs[rd], regIDs[rd], kernel.R(regIDs[rs]))
				for l := 0; l < width; l++ {
					if expect[l][rd] < expect[l][rs] {
						expect[l][rd] = 1
					} else {
						expect[l][rd] = 0
					}
				}
			}
		}

		// Spill every register to global: r i of lane l at i*width+l.
		addr := kb.Reg()
		lane := kb.Reg()
		kb.LaneID(lane)
		for i := range regIDs {
			kb.Const(addr, int64(i*width))
			kb.Add(addr, addr, kernel.R(lane))
			kb.StGlobal(addr, regIDs[i])
		}
		return kb.MustBuild(), expect
	}

	f := func(recipe []byte) bool {
		prog, expect := buildAndEval(recipe)
		d, err := New(Tiny())
		if err != nil {
			return false
		}
		if _, err := d.Launch(prog, 1); err != nil {
			return false
		}
		got, err := readGlobal(d.Global(), 0, regs*width)
		if err != nil {
			return false
		}
		for i := 0; i < regs; i++ {
			for l := 0; l < width; l++ {
				if got[i*width+l] != expect[l][i] {
					t.Logf("reg %d lane %d: device %d, reference %d",
						i, l, got[i*width+l], expect[l][i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialDivergentIf extends the differential check to masked
// execution: random single-block ifs guarded by lane comparisons.
func TestDifferentialDivergentIf(t *testing.T) {
	const width = 4
	f := func(thresholds []byte, deltas []byte) bool {
		n := len(thresholds)
		if len(deltas) < n {
			n = len(deltas)
		}
		if n > 12 {
			n = 12
		}
		kb := kernel.NewBuilder("diffif", 0)
		acc := kb.Reg()
		lane := kb.Reg()
		cond := kb.Reg()
		kb.Const(acc, 0)
		kb.LaneID(lane)

		expect := make([]int64, width)
		for i := 0; i < n; i++ {
			thr := int64(thresholds[i] % (width + 1))
			delta := int64(deltas[i]%9) - 4
			kb.Slt(cond, lane, kernel.Imm(thr))
			kb.IfDo(cond, func() {
				kb.Add(acc, acc, kernel.Imm(delta))
			})
			for l := 0; l < width; l++ {
				if int64(l) < thr {
					expect[l] += delta
				}
			}
		}
		kb.StGlobal(lane, acc)
		prog := kb.MustBuild()

		d, err := New(Tiny())
		if err != nil {
			return false
		}
		if _, err := d.Launch(prog, 1); err != nil {
			return false
		}
		got, err := readGlobal(d.Global(), 0, width)
		if err != nil {
			return false
		}
		for l := 0; l < width; l++ {
			if got[l] != expect[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
