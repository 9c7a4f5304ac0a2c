package isa

import (
	"encoding/binary"
	"fmt"
)

// Binary encoding. Each operation encodes to one 64-bit word:
//
//	byte 0    opcode
//	byte 1    dst
//	byte 2    a
//	byte 3    b
//	bytes 4-7 imm (little-endian int32)
//
// An instruction is MESlots+VESlots+LSSlots+1 consecutive words. Programs
// carry a small header. Two container types exist: "NVLW" for flat VLIW
// programs and "NISA" for NeuISA binaries (code pools + µTOp table +
// execution table), mirroring the paper's program layout in Fig. 15.

var (
	magicVLIW = [4]byte{'N', 'V', 'L', 'W'}
	magicNeu  = [4]byte{'N', 'I', 'S', 'A'}
)

const encVersion = 1

func (f Format) wordsPerInstruction() int { return f.MESlots + f.VESlots + LSSlots + 1 }

func putOp(b []byte, op Operation) {
	b[0] = byte(op.Op)
	b[1] = op.Dst
	b[2] = op.A
	b[3] = op.B
	binary.LittleEndian.PutUint32(b[4:], uint32(op.Imm))
}

func getOp(b []byte) Operation {
	return Operation{
		Op:  Opcode(b[0]),
		Dst: b[1],
		A:   b[2],
		B:   b[3],
		Imm: int32(binary.LittleEndian.Uint32(b[4:])),
	}
}

func encodeCode(dst []byte, code []Instruction) []byte {
	var w [8]byte
	emit := func(op Operation) {
		putOp(w[:], op)
		dst = append(dst, w[:]...)
	}
	for i := range code {
		in := &code[i]
		for _, op := range in.ME {
			emit(op)
		}
		for _, op := range in.VE {
			emit(op)
		}
		for _, op := range in.LS {
			emit(op)
		}
		emit(in.Misc)
	}
	return dst
}

func decodeCode(b []byte, f Format, n int) ([]Instruction, []byte, error) {
	wpi := f.wordsPerInstruction()
	need := n * wpi * 8
	if len(b) < need {
		return nil, nil, fmt.Errorf("isa: truncated code section: have %d bytes, need %d", len(b), need)
	}
	code := make([]Instruction, n)
	off := 0
	next := func() Operation {
		op := getOp(b[off:])
		off += 8
		return op
	}
	for i := 0; i < n; i++ {
		in := NewInstruction(f)
		for s := 0; s < f.MESlots; s++ {
			in.ME[s] = next()
		}
		for s := 0; s < f.VESlots; s++ {
			in.VE[s] = next()
		}
		for s := 0; s < LSSlots; s++ {
			in.LS[s] = next()
		}
		in.Misc = next()
		code[i] = in
	}
	return code, b[need:], nil
}

func putU32(dst []byte, v uint32) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	return append(dst, w[:]...)
}

func readU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("isa: truncated binary")
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

// checkCount rejects a section claiming n entries of at least size
// bytes each when fewer bytes remain in b.
func checkCount(what string, n uint32, size uint64, b []byte) error {
	if uint64(n)*size > uint64(len(b)) {
		return fmt.Errorf("isa: truncated %s: %d entries need %d bytes, have %d", what, n, uint64(n)*size, len(b))
	}
	return nil
}

// Encode serializes a VLIW program.
func (p *Program) Encode() []byte {
	out := append([]byte{}, magicVLIW[:]...)
	out = putU32(out, encVersion)
	out = putU32(out, uint32(p.Format.MESlots))
	out = putU32(out, uint32(p.Format.VESlots))
	out = putU32(out, uint32(len(p.Code)))
	return encodeCode(out, p.Code)
}

// DecodeProgram parses a VLIW binary produced by Encode.
func DecodeProgram(b []byte) (*Program, error) {
	if len(b) < 4 || [4]byte(b[:4]) != magicVLIW {
		return nil, fmt.Errorf("isa: not a VLIW binary")
	}
	b = b[4:]
	var ver, me, ve, n uint32
	var err error
	for _, dst := range []*uint32{&ver, &me, &ve, &n} {
		if *dst, b, err = readU32(b); err != nil {
			return nil, err
		}
	}
	if ver != encVersion {
		return nil, fmt.Errorf("isa: unsupported version %d", ver)
	}
	f := Format{MESlots: int(me), VESlots: int(ve)}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	code, rest, err := decodeCode(b, f, int(n))
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("isa: %d trailing bytes", len(rest))
	}
	return &Program{Format: f, Code: code}, nil
}

// Encode serializes a NeuISA binary: header, ME pool, VE pool, µTOp
// table, then the group execution table.
func (p *NeuProgram) Encode() []byte {
	out := append([]byte{}, magicNeu[:]...)
	out = putU32(out, encVersion)
	out = putU32(out, uint32(p.VESlots))
	out = putU32(out, uint32(len(p.MECode)))
	out = putU32(out, uint32(len(p.VECode)))
	out = putU32(out, uint32(len(p.UTops)))
	out = putU32(out, uint32(len(p.Groups)))
	out = encodeCode(out, p.MECode)
	out = encodeCode(out, p.VECode)
	for _, u := range p.UTops {
		out = putU32(out, uint32(u.Kind))
		out = putU32(out, uint32(u.Start))
	}
	for _, g := range p.Groups {
		out = putU32(out, uint32(len(g.ME)))
		for _, ui := range g.ME {
			out = putU32(out, uint32(int32(ui)))
		}
		out = putU32(out, uint32(int32(g.VE)))
	}
	return out
}

// DecodeNeuProgram parses a NeuISA binary produced by Encode.
func DecodeNeuProgram(b []byte) (*NeuProgram, error) {
	if len(b) < 4 || [4]byte(b[:4]) != magicNeu {
		return nil, fmt.Errorf("isa: not a NeuISA binary")
	}
	b = b[4:]
	var ver, ve, nme, nve, nut, ngr uint32
	var err error
	for _, dst := range []*uint32{&ver, &ve, &nme, &nve, &nut, &ngr} {
		if *dst, b, err = readU32(b); err != nil {
			return nil, err
		}
	}
	if ver != encVersion {
		return nil, fmt.Errorf("isa: unsupported version %d", ver)
	}
	p := &NeuProgram{VESlots: int(ve)}
	if err := p.MEFormat().Validate(); err != nil {
		return nil, err
	}
	if p.MECode, b, err = decodeCode(b, p.MEFormat(), int(nme)); err != nil {
		return nil, err
	}
	if p.VECode, b, err = decodeCode(b, p.VEFormat(), int(nve)); err != nil {
		return nil, err
	}
	// Every count is checked against the bytes left before it sizes an
	// allocation: a µTOp entry takes 8 bytes, a group at least 8.
	if err := checkCount("µTOp table", nut, 8, b); err != nil {
		return nil, err
	}
	p.UTops = make([]UTop, nut)
	for i := range p.UTops {
		var k, s uint32
		if k, b, err = readU32(b); err != nil {
			return nil, err
		}
		if s, b, err = readU32(b); err != nil {
			return nil, err
		}
		p.UTops[i] = UTop{Kind: UTopKind(k), Start: int(s)}
	}
	if err := checkCount("group table", ngr, 8, b); err != nil {
		return nil, err
	}
	p.Groups = make([]Group, ngr)
	for i := range p.Groups {
		var n uint32
		if n, b, err = readU32(b); err != nil {
			return nil, err
		}
		if n > maxGroupMEs {
			return nil, fmt.Errorf("isa: group %d claims %d ME entries", i, n)
		}
		if err := checkCount(fmt.Sprintf("group %d", i), n+1, 4, b); err != nil {
			return nil, err
		}
		g := Group{ME: make([]int, n)}
		for j := range g.ME {
			var v uint32
			if v, b, err = readU32(b); err != nil {
				return nil, err
			}
			g.ME[j] = int(int32(v))
		}
		var v uint32
		if v, b, err = readU32(b); err != nil {
			return nil, err
		}
		g.VE = int(int32(v))
		p.Groups[i] = g
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("isa: %d trailing bytes", len(b))
	}
	return p, nil
}
