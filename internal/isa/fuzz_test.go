package isa

import (
	"bytes"
	"testing"
)

// Both targets start from matmulAsm; testdata/fuzz holds further seeds,
// among them inputs that crashed or broke the round trip before.

// FuzzDecodeNeuProgram feeds arbitrary bytes to the NeuISA decoder,
// which reads files from outside the program (neu10-asm -d). Every
// input must come back as an error or as a program that DumpNeuProgram
// renders and that re-encodes to exactly the input bytes, so it decodes
// again.
func FuzzDecodeNeuProgram(f *testing.F) {
	p, err := Assemble(matmulAsm)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeNeuProgram(data)
		if err != nil {
			return
		}
		DumpNeuProgram(p)
		if enc := p.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("decoded %d bytes, re-encoded %d different ones", len(data), len(enc))
		}
	})
}

// FuzzAssemble feeds arbitrary text to the assembler (neu10-asm -in).
// Every source must come back as an error or as a program whose binary
// survives Encode → DecodeNeuProgram → Encode byte-identically, and
// whose DumpNeuProgram source assembles back to that same binary.
func FuzzAssemble(f *testing.F) {
	f.Add(matmulAsm)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		bin := p.Encode()
		q, err := DecodeNeuProgram(bin)
		if err != nil {
			t.Fatalf("assembled program does not decode: %v", err)
		}
		if again := q.Encode(); !bytes.Equal(again, bin) {
			t.Fatalf("encode → decode → encode changed the %d-byte binary", len(bin))
		}
		dump := DumpNeuProgram(p)
		r, err := Assemble(dump)
		if err != nil {
			t.Fatalf("dump does not assemble: %v\n%s", err, dump)
		}
		if !bytes.Equal(r.Encode(), bin) {
			t.Fatalf("dump assembles to a different binary:\n%s", dump)
		}
	})
}
