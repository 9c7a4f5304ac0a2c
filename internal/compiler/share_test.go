package compiler_test

import (
	"reflect"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/model"
)

// sharingGraphs returns every registry model at batches 1, 8 and 64 and
// the LLM phase graphs at the shapes TestGoldenGraphs pins.
func sharingGraphs(t *testing.T) []*compiler.Graph {
	t.Helper()
	var out []*compiler.Graph
	for _, name := range model.Names() {
		for _, batch := range []int{1, 8, 64} {
			g, err := model.Build(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, g)
		}
	}
	for _, s := range [][3]int{{1, 16, 0}, {4, 64, 128}, {16, 1, 640}} {
		out = append(out, model.LLMPrefillChunk(s[0], s[1], s[2], model.LLMLayers),
			model.LLMDecode(s[0], s[1]+s[2], model.LLMLayers))
	}
	return out
}

// TestCompileSharesRepeats: on a full core and a 1ME+1VE one, under
// both ISAs, Compile gives every op of every registry model and LLM
// phase graph exactly what a one-op graph of it compiles to, field for
// field; ops equal but for their names share one backing array, and
// ops that differ in any other field do not.
func TestCompileSharesRepeats(t *testing.T) {
	graphs := sharingGraphs(t)
	for _, core := range []arch.CoreConfig{arch.TPUv4Like(), arch.TPUv4Like().WithEUs(1, 1)} {
		c, err := compiler.New(core)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []compiler.ISAKind{compiler.ISANeu, compiler.ISAVLIW} {
			shared, total := 0, 0
			for _, g := range graphs {
				cg, err := c.Compile(g, kind)
				if err != nil {
					t.Fatal(err)
				}
				first := map[compiler.Op]*compiler.GroupSpec{} // op, unnamed → its groups
				owner := map[*compiler.GroupSpec]compiler.Op{} // groups → the op, unnamed
				for i, op := range g.Ops {
					one, err := c.Compile(&compiler.Graph{Model: g.Model, BatchSize: g.BatchSize,
						Ops: []compiler.Op{op}}, kind)
					if err != nil {
						t.Fatal(err)
					}
					co := &cg.Ops[i]
					if !reflect.DeepEqual(*co, one.Ops[0]) {
						t.Fatalf("%s b%d %s op %d (%s): compiled to %+v, alone to %+v",
							g.Model, g.BatchSize, kind, i, op.Name, *co, one.Ops[0])
					}
					op.Name = ""
					groups := &co.Groups[0]
					if o, ok := owner[groups]; ok && o != op {
						t.Fatalf("%s b%d %s op %d shares groups with a different op: %+v vs %+v",
							g.Model, g.BatchSize, kind, i, op, o)
					}
					owner[groups] = op
					if f, ok := first[op]; !ok {
						first[op] = groups
					} else if f != groups {
						t.Fatalf("%s b%d %s op %d repeats an earlier op but has its own groups",
							g.Model, g.BatchSize, kind, i)
					} else {
						shared++
					}
				}
				total += len(g.Ops)
			}
			t.Logf("%dME+%dVE %s: %d of %d ops share an earlier op's groups", core.MEs, core.VEs, kind, shared, total)
		}
	}
}

// TestCompileAllocations: a compile allocates the compiled graph, its
// op slice and the two arrays every distinct op's groups and µTOps are
// carved from, whatever the graph's op count and however many repeat.
func TestCompileAllocations(t *testing.T) {
	c, err := compiler.New(arch.TPUv4Like())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range sharingGraphs(t) {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := c.Compile(g, compiler.ISANeu); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 4 {
			t.Errorf("%s b%d (%d ops): %v allocations per compile, want 4", g.Model, g.BatchSize, len(g.Ops), allocs)
		}
	}
}
