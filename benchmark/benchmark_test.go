package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// tinySizes shrinks every workload to a smoke-test size.
func tinySizes() sizes {
	return sizes{
		paperIDs:   []string{"fig2", "fig19"},
		serveIDs:   []string{"serve-steady", "serve-paged"},
		llmLongSec: 300,
		chaosSec:   20,
		minPasses:  2,
		setupReps:  1,
	}
}

type benchmarkMetric struct {
	Name, Unit string
	Bound      *float64
}

type benchmarkFile struct {
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

// resultLine parses the last line printReport writes.
func resultLine(t *testing.T, rep *report) map[string]struct {
	Value float64
	Unit  string
} {
	t.Helper()
	var buf bytes.Buffer
	if err := printReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result line: correct %v, %d attempted, %d failed", res.Correct, res.Attempted, res.Failed)
	}
	return res.Metrics
}

// TestWorkloadsEmitEveryMetric runs each workload at a tiny size, plain
// and traced, and checks that every metric BENCHMARK.json names is
// emitted with its unit and bound, that every pass repeats the first pass's
// digest, and that the plain and traced runs agree on it.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkFile
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, def := range workloadDefs() {
		t.Run(def.name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				rep, spans := run(def, runConfig{seed: 1, traced: traced, sz: tinySizes()})
				if !rep.Correct {
					t.Fatalf("traced=%v: run failed: %v", traced, rep.Errors)
				}
				digests = append(digests, rep.Digest)
				want := bj.EndToEnd
				if traced {
					want = bj.PerLayer
					if spans == nil || len(spans.spans) == 0 {
						t.Fatal("traced run recorded no spans")
					}
					var buf bytes.Buffer
					if err := spans.writeChrome(&buf); err != nil || !json.Valid(buf.Bytes()) {
						t.Fatalf("span export: %v", err)
					}
				}
				got := resultLine(t, rep)
				if len(got) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json lists %d", traced, len(got), len(want))
				}
				for _, m := range want {
					g, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s not emitted", traced, m.Name)
					case g.Unit != m.Unit:
						t.Errorf("traced=%v: %s unit %q, BENCHMARK.json says %q", traced, m.Name, g.Unit, m.Unit)
					case m.Bound != nil && *m.Bound != endToEnd[m.Name].bound:
						t.Errorf("%s bound %v, BENCHMARK.json says %v", m.Name, endToEnd[m.Name].bound, *m.Bound)
					}
				}
			}
			if digests[0] != digests[1] {
				t.Errorf("plain and traced runs disagree: digest %s vs %s", digests[0], digests[1])
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{105, 129, 87, 86, 111, 111, 89, 81, 108, 92, 110, 100, 75, 105, 103, 109, 76, 119, 99, 91, 103, 129, 106, 101, 84, 111, 74, 87, 86, 103, 103, 106, 86, 111, 75, 87, 102, 121, 111, 88, 89, 101, 106, 95, 103, 107, 101, 81, 109, 104},
			87, 102.5, 108.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
