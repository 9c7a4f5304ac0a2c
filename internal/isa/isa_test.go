package isa

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeSlotLegality(t *testing.T) {
	cases := []struct {
		op    Opcode
		kind  SlotKind
		legal bool
	}{
		{OpNop, SlotME, true},
		{OpNop, SlotVE, true},
		{OpNop, SlotLS, true},
		{OpNop, SlotMisc, true},
		{OpMEPush, SlotME, true},
		{OpMEPush, SlotVE, false},
		{OpVAdd, SlotVE, true},
		{OpVAdd, SlotME, false},
		{OpVLoad, SlotLS, true},
		{OpVLoad, SlotMisc, false},
		{OpUTopFinish, SlotMisc, true},
		{OpUTopFinish, SlotME, false},
		{OpHalt, SlotMisc, true},
		{OpDMALoad, SlotMisc, true},
		{OpBEQ, SlotMisc, true},
		{OpVStore, SlotLS, true},
		{OpVStore, SlotVE, false},
	}
	for _, c := range cases {
		if got := c.op.Legal(c.kind); got != c.legal {
			t.Errorf("%s legal in %s = %v, want %v", c.op, c.kind, got, c.legal)
		}
	}
}

func TestEveryOpcodeHasExactlyOneSlotFamily(t *testing.T) {
	for op := OpNop + 1; op < opCount; op++ {
		n := 0
		for _, k := range []SlotKind{SlotME, SlotVE, SlotLS, SlotMisc} {
			if op.Legal(k) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("opcode %s legal in %d slot kinds, want 1", op, n)
		}
	}
}

func TestOpcodeStringsDistinct(t *testing.T) {
	seen := map[string]Opcode{}
	for op := OpNop; op < opCount; op++ {
		s := op.String()
		if strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no name", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("opcodes %d and %d share name %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestInstructionValidate(t *testing.T) {
	f := Format{MESlots: 2, VESlots: 4}
	in := NewInstruction(f)
	if err := in.Validate(f); err != nil {
		t.Fatalf("all-nop instruction invalid: %v", err)
	}
	in.ME[0] = Operation{Op: OpVAdd} // VE op in ME slot
	if err := in.Validate(f); err == nil {
		t.Fatal("VE op in ME slot not rejected")
	}
	in.ME[0] = MEPop(NumVectorRegs - 1)
	if err := in.Validate(f); err != nil {
		t.Fatalf("last vector register rejected: %v", err)
	}
	in.ME[0] = MEPop(NumVectorRegs)
	if err := in.Validate(f); err == nil {
		t.Fatal("register past the file not rejected")
	}
}

func TestBuilderSlotOverflow(t *testing.T) {
	b := NewBuilder(Format{MESlots: 1, VESlots: 2})
	b.ME(MEPop(0)).ME(MEPop(1)) // second ME op overflows
	b.End()
	if _, err := b.Code(); err == nil {
		t.Fatal("ME slot overflow not reported")
	}
}

func TestBuilderIllegalSlot(t *testing.T) {
	b := NewBuilder(Format{MESlots: 1, VESlots: 1})
	b.VE(MEPop(0)) // ME op routed to VE slot
	b.End()
	if _, err := b.Code(); err == nil {
		t.Fatal("illegal slot op not reported")
	}
}

func TestBuilderDoubleMisc(t *testing.T) {
	b := NewBuilder(Format{MESlots: 0, VESlots: 1})
	b.Misc(Halt()).Misc(Halt())
	b.End()
	if _, err := b.Code(); err == nil {
		t.Fatal("double misc not reported")
	}
}

func TestBuilderUnsealedTrailing(t *testing.T) {
	b := NewBuilder(Format{MESlots: 0, VESlots: 1})
	b.VE(V1(OpVRelu, 0, 1)) // never sealed
	if _, err := b.Code(); err == nil {
		t.Fatal("unsealed instruction not reported")
	}
}

func buildTestVLIW(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder(Format{MESlots: 2, VESlots: 2})
	b.Misc(SMovI(1, 64)).End()
	b.ME(MELoadW(1, 128, 128)).ME(MELoadW(1, 128, 128)).End()
	b.ME(MEPush(1, 128)).ME(MEPush(1, 128)).VE(V1(OpVRelu, 2, 2)).End()
	b.ME(MEPop(0)).ME(MEPop(1)).End()
	b.LS(VStore(1, 0, 0)).LS(VStore(1, 1, 128)).Misc(Halt()).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}
	p := &Program{Format: Format{MESlots: 2, VESlots: 2}, Code: code}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVLIWEncodeDecodeRoundTrip(t *testing.T) {
	p := buildTestVLIW(t)
	bin := p.Encode()
	q, err := DecodeProgram(bin)
	if err != nil {
		t.Fatal(err)
	}
	if q.Format != p.Format || len(q.Code) != len(p.Code) {
		t.Fatalf("format/len mismatch: %+v vs %+v", q.Format, p.Format)
	}
	for i := range p.Code {
		a, b := &p.Code[i], &q.Code[i]
		if Disassemble(a, i) != Disassemble(b, i) {
			t.Fatalf("instruction %d mismatch:\n%s\n%s", i, Disassemble(a, i), Disassemble(b, i))
		}
	}
}

func TestVLIWProgramRequiresHalt(t *testing.T) {
	b := NewBuilder(Format{MESlots: 1, VESlots: 1})
	b.VE(V1(OpVRelu, 0, 0)).End()
	code, err := b.Code()
	if err != nil {
		t.Fatal(err)
	}
	p := &Program{Format: Format{MESlots: 1, VESlots: 1}, Code: code}
	if err := p.Validate(); err == nil {
		t.Fatal("halt-less program validated")
	}
}

func TestVLIWBranchRangeChecked(t *testing.T) {
	b := NewBuilder(Format{MESlots: 1, VESlots: 1})
	b.Misc(Branch(OpBNE, 1, 0, +100)).End()
	b.Misc(Halt()).End()
	code, _ := b.Code()
	p := &Program{Format: Format{MESlots: 1, VESlots: 1}, Code: code}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range branch validated")
	}
}

// buildTestNeuProgram builds a two-group NeuISA program: group 0 has two
// ME µTOps sharing one snippet, group 1 has a VE µTOp.
func buildTestNeuProgram(t *testing.T) *NeuProgram {
	t.Helper()
	me := NewBuilder(Format{MESlots: 1, VESlots: 2})
	me.Misc(UTopIndex(2)).End()
	me.ME(MELoadW(1, 128, 128)).End()
	me.ME(MEPush(1, 128)).End()
	me.ME(MEPop(0)).VE(V1(OpVRelu, 0, 0)).End()
	me.LS(VStore(1, 0, 0)).Misc(UTopFinish()).End()
	meCode, err := me.Code()
	if err != nil {
		t.Fatal(err)
	}

	ve := NewBuilder(Format{MESlots: 0, VESlots: 2})
	ve.LS(Operation{Op: OpVLoad, Dst: 0, A: 1}).LS(Operation{Op: OpVLoad, Dst: 1, A: 1, Imm: 128}).End()
	ve.VE(Operation{Op: OpVAdd, Dst: 2, A: 0, B: 1}).VE(V1(OpVRelu, 3, 2)).End()
	ve.LS(VStore(1, 2, 256)).Misc(UTopFinish()).End()
	veCode, err := ve.Code()
	if err != nil {
		t.Fatal(err)
	}

	p := &NeuProgram{
		VESlots: 2,
		MECode:  meCode,
		VECode:  veCode,
		UTops: []UTop{
			{Kind: MEUTop, Start: 0},
			{Kind: MEUTop, Start: 0}, // shares the snippet
			{Kind: VEUTop, Start: 0},
		},
		Groups: []Group{
			{ME: []int{0, 1}, VE: NullUTop},
			{ME: nil, VE: 2},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDumpUnsharesSnippets: the snippet two µTOps share prints once for
// each, and the dump reassembles to the same µTOps and groups.
func TestDumpUnsharesSnippets(t *testing.T) {
	p := buildTestNeuProgram(t)
	q, err := Assemble(DumpNeuProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.MECode) != 2*len(p.MECode) || !reflect.DeepEqual(q.Groups, p.Groups) {
		t.Fatalf("reassembled %d ME instructions and groups %+v, want %d and %+v",
			len(q.MECode), q.Groups, 2*len(p.MECode), p.Groups)
	}
	for i, u := range p.UTops {
		code, _ := p.CodeFor(u.Kind)
		n, _ := snippetLen(code, u.Start)
		qcode, _ := q.CodeFor(q.UTops[i].Kind)
		qs := q.UTops[i].Start
		if q.UTops[i].Kind != u.Kind || !reflect.DeepEqual(qcode[qs:qs+n], code[u.Start:u.Start+n]) {
			t.Errorf("µTOp %d reassembled differently", i)
		}
	}
}

func TestNeuProgramValidate(t *testing.T) {
	p := buildTestNeuProgram(t)

	// VE µTOp referenced from an ME cell must fail.
	bad := *p
	bad.Groups = []Group{{ME: []int{2}, VE: NullUTop}}
	if err := bad.Validate(); err == nil {
		t.Fatal("VE µTOp in ME cell validated")
	}

	// Dangling µTOp start must fail.
	bad2 := *p
	bad2.UTops = append([]UTop{}, p.UTops...)
	bad2.UTops[0].Start = 9999
	if err := bad2.Validate(); err == nil {
		t.Fatal("dangling snippet start validated")
	}

	// Empty group must fail.
	bad3 := *p
	bad3.Groups = append([]Group{}, p.Groups...)
	bad3.Groups = append(bad3.Groups, Group{VE: NullUTop})
	if err := bad3.Validate(); err == nil {
		t.Fatal("empty group validated")
	}
}

func TestNeuProgramMissingFinishRejected(t *testing.T) {
	b := NewBuilder(Format{MESlots: 1, VESlots: 1})
	b.ME(MEPop(0)).End() // no uTop.finish
	code, _ := b.Code()
	p := &NeuProgram{
		VESlots: 1,
		MECode:  code,
		UTops:   []UTop{{Kind: MEUTop, Start: 0}},
		Groups:  []Group{{ME: []int{0}, VE: NullUTop}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("unterminated snippet validated")
	}
}

func TestNeuProgramBranchEscapeRejected(t *testing.T) {
	b := NewBuilder(Format{MESlots: 1, VESlots: 1})
	b.Misc(Branch(OpBNE, 1, 0, +10)).End()
	b.Misc(UTopFinish()).End()
	code, _ := b.Code()
	p := &NeuProgram{
		VESlots: 1,
		MECode:  code,
		UTops:   []UTop{{Kind: MEUTop, Start: 0}},
		Groups:  []Group{{ME: []int{0}, VE: NullUTop}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("branch escaping snippet validated")
	}
}

func TestNeuEncodeDecodeRoundTrip(t *testing.T) {
	p := buildTestNeuProgram(t)
	bin := p.Encode()
	q, err := DecodeNeuProgram(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("decoded program invalid: %v", err)
	}
	if DumpNeuProgram(p) != DumpNeuProgram(q) {
		t.Fatalf("roundtrip mismatch:\n%s\nvs\n%s", DumpNeuProgram(p), DumpNeuProgram(q))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeProgram([]byte("not a binary")); err == nil {
		t.Fatal("garbage VLIW accepted")
	}
	if _, err := DecodeNeuProgram([]byte("nope")); err == nil {
		t.Fatal("garbage NeuISA accepted")
	}
	// Truncation at every prefix length must error, never panic.
	p := buildTestNeuProgram(t)
	bin := p.Encode()
	for n := 0; n < len(bin); n += 7 {
		if _, err := DecodeNeuProgram(bin[:n]); err == nil {
			t.Fatalf("truncated binary (%d bytes) accepted", n)
		}
	}
}

func TestOperationEncodingRoundTripProperty(t *testing.T) {
	f := func(opByte, dst, a, b uint8, imm int32) bool {
		op := Operation{Op: Opcode(opByte), Dst: dst, A: a, B: b, Imm: imm}
		var buf [8]byte
		putOp(buf[:], op)
		return getOp(buf[:]) == op
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCountsSharing(t *testing.T) {
	p := buildTestNeuProgram(t)
	s := p.Stats()
	if s.Groups != 2 || s.MEUTops != 2 || s.VEUTops != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SharedBytes == 0 {
		t.Fatal("snippet sharing saved zero bytes despite shared snippet")
	}
}

// TestEveryOpcodeParsesBack prints each opcode with a distinct nonzero
// value in every field its syntax carries and parses the text back.
func TestEveryOpcodeParsesBack(t *testing.T) {
	const pc = 7
	for code := OpNop; code < opCount; code++ {
		syntax := opSpecs[code].operands
		want := Operation{Op: code}
		if strings.Contains(syntax, "D") {
			want.Dst = 1
		}
		if strings.Contains(syntax, "A") {
			want.A = 2
		}
		if strings.Contains(syntax, "B") {
			want.B = 3
		}
		if strings.ContainsAny(syntax, "NR@") {
			want.Imm = -0x12345
		}
		text := opText(want, pc)
		got, kind, label, err := parseOp(text)
		if err != nil {
			t.Errorf("%s: %q does not parse: %v", code, text, err)
			continue
		}
		if want.Op.IsBranch() {
			if label != fmt.Sprintf("L%d", pc+int(want.Imm)) {
				t.Errorf("%s: %q names label %q", code, text, label)
			}
			got.Imm = want.Imm
		}
		if got != want || !code.Legal(kind) {
			t.Errorf("%s: %q parses to %#v in a %s slot, want %#v", code, text, got, kind, want)
		}
	}
}
