package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestDisassemblyAssemblesBack: a kernel assembled, printed with -d and
// assembled again gives the same binary.
func TestDisassemblyAssemblesBack(t *testing.T) {
	dir := t.TempDir()
	a, b, src := filepath.Join(dir, "a.bin"), filepath.Join(dir, "b.bin"), filepath.Join(dir, "k2.s")
	if err := run([]string{"-in", "../../internal/isa/testdata/matmul.s", "-out", a}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := run([]string{"-d", a}, &dump); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src, dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", src, "-out", b}, io.Discard); err != nil {
		t.Fatalf("-d output does not assemble: %v\n%s", err, dump.String())
	}
	binA, errA := os.ReadFile(a)
	binB, errB := os.ReadFile(b)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(binA, binB) {
		t.Fatalf("reassembled binary differs (%d vs %d bytes):\n%s", len(binA), len(binB), dump.String())
	}
}

func TestDisassembleRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.bin")
	if err := os.WriteFile(path, []byte("NISA not a binary"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-d", path}, io.Discard); err == nil {
		t.Fatal("-d accepted a garbage binary")
	}
}
