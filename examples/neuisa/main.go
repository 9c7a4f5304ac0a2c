// NeuISA demo: the paper's core ISA argument on real binaries.
//
// It compiles one fused MatMul+ReLU operator twice — to a traditional
// VLIW binary (ME count baked in) and to a NeuISA binary (per-ME control
// flow split into µTOps) — then executes both on the functional NPU
// simulator, verifies the numerics against the host reference, and shows
// that the NeuISA binary runs unmodified on 1, 2 and 4 matrix engines
// while the VLIW binary refuses anything narrower than it was compiled
// for (Fig. 9). The simulator is functional, so it reports µTOps and
// instructions; timing comes from the fluid simulator in internal/sched.
//
//	go run ./examples/neuisa
package main

import (
	"fmt"
	"log"
	"strings"

	"neu10/internal/compiler"
	"neu10/internal/isa"
	"neu10/internal/npu"
	"neu10/internal/tensor"
)

func main() {
	const m, k, n = 32, 96, isa.VectorLanes

	// Host-side operands and reference result.
	a := tensor.New(m, k)
	b := tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = float32(i%17) - 8
	}
	for i := range b.Data {
		b.Data[i] = float32(i%11)/4 - 1.25
	}
	want := tensor.ReLU(tensor.MatMul(a, b))

	lay := compiler.MatMulLayout{ABase: 0, BBase: 16384, CBase: 65536}
	neu, err := compiler.LowerMatMul(m, k, n, 4, true, lay, 4)
	if err != nil {
		log.Fatal(err)
	}
	vliw, err := compiler.LowerMatMulVLIW(m, k, n, 4, true, lay, 4)
	if err != nil {
		log.Fatal(err)
	}

	stats := neu.Stats()
	fmt.Printf("fused MatMul+ReLU %dx%dx%d\n", m, k, n)
	fmt.Printf("NeuISA binary: %d µTOp groups, %d ME µTOps sharing one snippet, %d instructions\n",
		stats.Groups, stats.MEUTops, stats.Instructions)
	fmt.Printf("VLIW binary:   compiled for exactly %d MEs, %d instructions\n\n",
		vliw.Format.MESlots, len(vliw.Code))

	// The dump is assembler source; µTOps u1-u3 repeat u0's snippet.
	fmt.Println("first µTOp of the NeuISA binary, as neu10-asm source:")
	src, _, _ := strings.Cut(isa.DumpNeuProgram(neu), ".utop me u1\n")
	fmt.Println(src)

	for _, meCount := range []int{1, 2, 4} {
		cfg := npu.DefaultConfig()
		cfg.MEs = meCount
		cfg.SRAMWords = 1 << 18
		cfg.HBMWords = 1 << 12
		coreDev, err := npu.NewCore(cfg)
		if err != nil {
			log.Fatal(err)
		}
		copy(coreDev.SRAM[lay.ABase:], a.Data)
		copy(coreDev.SRAM[lay.BBase:], b.Data)

		mes := make([]int, meCount)
		for i := range mes {
			mes[i] = i
		}
		st, err := coreDev.RunNeu(neu, mes)
		if err != nil {
			log.Fatal(err)
		}
		got := tensor.New(m, n)
		copy(got.Data, coreDev.SRAM[lay.CBase:int(lay.CBase)+m*n])
		diff := tensor.MaxAbsDiff(want, got)
		fmt.Printf("NeuISA on %d ME(s): %d µTOps, %4d instructions, max |err| = %v\n",
			meCount, st.UTopsRun, st.Instructions, diff)

		// The VLIW binary only runs when the core is at least as wide as
		// its format — the static coupling NeuISA removes.
		if _, err := coreDev.RunVLIW(vliw); err != nil {
			fmt.Printf("VLIW on %d ME(s): refused (%v)\n", meCount, err)
		} else {
			fmt.Printf("VLIW on %d ME(s): ok\n", meCount)
		}
	}
}
