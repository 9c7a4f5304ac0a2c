package model

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neu10/internal/compiler"
)

// goldenLLMShapes are the (batch, chunk, ctx) shapes at which the phase
// builders are pinned: LLMPrefillChunk at all three, LLMDecode at
// (batch, chunk+ctx).
var goldenLLMShapes = [][3]int{{1, 16, 0}, {4, 64, 128}, {16, 1, 640}}

// goldenBuild is one graph TestGoldenGraphs pins: the label of its
// golden line and the call that builds it.
type goldenBuild struct {
	label string
	build func() *compiler.Graph
}

func goldenBuilds() []goldenBuild {
	var out []goldenBuild
	for _, name := range Names() {
		for _, batch := range []int{1, 8, 64} {
			out = append(out, goldenBuild{fmt.Sprintf("%s batch=%d", name, batch),
				func() *compiler.Graph { g, _ := Build(name, batch); return g }})
		}
	}
	for _, s := range goldenLLMShapes {
		out = append(out,
			goldenBuild{fmt.Sprintf("LLMPrefillChunk(%d,%d,%d)", s[0], s[1], s[2]),
				func() *compiler.Graph { return LLMPrefillChunk(s[0], s[1], s[2], LLMLayers) }},
			goldenBuild{fmt.Sprintf("LLMDecode(%d,%d)", s[0], s[1]+s[2]),
				func() *compiler.Graph { return LLMDecode(s[0], s[1]+s[2], LLMLayers) }})
	}
	return out
}

// TestGoldenGraphs pins every field of every op (its name included),
// plus each graph's Model, BatchSize and HBMFootprint, for each registry
// model at batches 1, 8 and 64 and for the LLM phase builders at
// goldenLLMShapes. No figure, table or serving golden prints op names,
// so without this a renamed, reordered or resized op would go unseen.
// One SHA-256 per graph lives in testdata/golden_graphs.sha256,
// regenerated only under NEU10_UPDATE_GOLDEN.
func TestGoldenGraphs(t *testing.T) {
	var sb strings.Builder
	for _, gb := range goldenBuilds() {
		g := gb.build()
		if g == nil {
			t.Fatalf("%s: no graph", gb.label)
		}
		h := sha256.New()
		hashGraph(h, g)
		fmt.Fprintf(&sb, "%x  %s\n", h.Sum(nil), gb.label)
	}
	path := filepath.Join("testdata", "golden_graphs.sha256")
	if os.Getenv("NEU10_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("graphs diverged:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// hashGraph writes every field of g and of each of its ops; strings are
// length-prefixed, so no two different graphs write the same bytes.
func hashGraph(h hash.Hash, g *compiler.Graph) {
	var buf [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	str := func(s string) {
		put(int64(len(s)))
		h.Write([]byte(s))
	}
	str(g.Model)
	put(int64(g.BatchSize), g.HBMFootprint, int64(len(g.Ops)))
	for i := range g.Ops {
		o := &g.Ops[i]
		fused := int64(0)
		if o.FusedVE {
			fused = 1
		}
		str(o.Name)
		put(int64(o.Kind), int64(o.M), int64(o.K), int64(o.N), o.Elems, int64(o.Passes),
			fused, o.WeightBytes, o.IOBytes)
	}
}

// maxBuildAllocs is what one graph build allocates at most: the Graph,
// its op slice and its one name string.
const maxBuildAllocs = 3

// TestBuildAllocatesOnce: every builder sizes its op slice exactly
// (cap == len) and allocates the same few objects however many ops it
// emits, from MNIST's 7 to LLaMA's 2888; the per-op names live in one
// string per graph and the layer names callers concatenate stay on
// their stack.
func TestBuildAllocatesOnce(t *testing.T) {
	for _, gb := range goldenBuilds() {
		g := gb.build()
		if cap(g.Ops) != len(g.Ops) {
			t.Errorf("%s: %d ops in a slice of capacity %d", gb.label, len(g.Ops), cap(g.Ops))
		}
		// AllocsPerRun's mean over 20 runs rounds down, so the odd
		// allocation the runtime makes during a GC cycle does not fail it,
		// while one more allocation per build does.
		if n := testing.AllocsPerRun(20, func() { gb.build() }); n > maxBuildAllocs {
			t.Errorf("%s: %d ops built in %v allocations, want at most %d", gb.label, len(g.Ops), n, maxBuildAllocs)
		}
	}
}
