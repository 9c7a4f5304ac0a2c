// Command neu10-asm assembles NeuISA text into binaries and disassembles
// binaries back to text:
//
//	neu10-asm -in kernel.s -out kernel.bin
//	neu10-asm -d kernel.bin
//
// The assembler syntax is documented on isa.Assemble. -d prints that
// syntax: its output assembles back to the same binary, except that a
// snippet several µTOps share is written out once per µTOp.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"neu10/internal/isa"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "neu10-asm:", err)
		os.Exit(1)
	}
}

// run is the whole command; it writes the disassembly or the assembly
// report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		in   = fs.String("in", "", "assembly source file (assemble mode)")
		out  = fs.String("out", "", "output binary path (default: stdout size report)")
		dump = fs.String("d", "", "binary file to disassemble")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *dump != "":
		bin, err := os.ReadFile(*dump)
		if err != nil {
			return err
		}
		prog, err := isa.DecodeNeuProgram(bin)
		if err != nil {
			return err
		}
		_, err = io.WriteString(stdout, isa.DumpNeuProgram(prog))
		return err
	case *in != "":
		src, err := os.ReadFile(*in)
		if err != nil {
			return err
		}
		prog, err := isa.Assemble(string(src))
		if err != nil {
			return err
		}
		bin := prog.Encode()
		if *out != "" {
			if err := os.WriteFile(*out, bin, 0o644); err != nil {
				return err
			}
		}
		st := prog.Stats()
		_, err = fmt.Fprintf(stdout, "assembled: %d µTOps (%d ME, %d VE), %d groups, %d instructions, %d bytes\n",
			st.MEUTops+st.VEUTops, st.MEUTops, st.VEUTops, st.Groups, st.Instructions, len(bin))
		return err
	default:
		fs.Usage()
		return errors.New("give -in to assemble or -d to disassemble")
	}
}
