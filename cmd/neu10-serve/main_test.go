package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFailedRunKeepsProfiles: a run that fails after profiling started
// must return its error only once both profiles are complete — a
// gzipped CPU profile and a heap profile — instead of exiting past the
// deferred writers and leaving an empty -cpuprofile and no -memprofile.
func TestFailedRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "p.prof"), filepath.Join(dir, "m.prof")
	err := run([]string{"-scenario", "steady", "-sample-ms", "NaN", "-timelines", filepath.Join(dir, "x.csv"),
		"-cpuprofile", cpu, "-memprofile", mem})
	if err == nil {
		t.Fatal("run accepted a NaN timeline sampling period")
	}
	for _, path := range []string{cpu, mem} {
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, not a gzipped profile", filepath.Base(path), len(data))
		}
	}
}
