package npu

import (
	"testing"

	"neu10/internal/isa"
)

// FuzzRunNeu runs arbitrary NeuISA binaries, which a guest can submit
// through its vNPU's command ring, on a small core with two MEs. Every
// run must return, with or without an error; none may panic. Inputs
// that can loop are skipped: they may run to the instruction cap, which
// takes seconds each. testdata/fuzz holds the golden kernel and binaries
// that used to panic the interpreter.
func FuzzRunNeu(f *testing.F) {
	cfg := DefaultConfig()
	cfg.SRAMWords = 1 << 16
	cfg.HBMWords = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.DecodeNeuProgram(data)
		if err != nil || mayLoop(p) {
			return
		}
		c, err := NewCore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = c.RunNeu(p, []int{0, 1}) // any error is an acceptable outcome
	})
}

// mayLoop reports whether p holds a branch whose offset is not positive,
// or a uTop.nextGroup: the only ways a run can loop.
func mayLoop(p *isa.NeuProgram) bool {
	for _, code := range [][]isa.Instruction{p.MECode, p.VECode} {
		for _, in := range code {
			if op := in.Misc; op.Op == isa.OpUTopNextGroup || op.Op.IsBranch() && op.Imm <= 0 {
				return true
			}
		}
	}
	return false
}
