package experiments

import (
	"testing"

	"neu10/internal/arch"
	"neu10/internal/sched"
	"neu10/internal/workload"
)

// TestParallelMatchesSequential is the determinism regression test for
// the parallel runner: for a fixed seed/config, every experiment table
// rendered by the worker-pool runner must be byte-identical to the
// fully sequential runner's output. The ids below cover each
// parallelization shape: the (pair, policy) grid (fig19/table3), per-pair
// couples (fig23), per-pair sweeps (fig25), grid cells with shared
// compile caches (fig26), open-loop seeded arrivals (slo), and solo runs
// (fig5). fig19, fig21, table3, fig23, fig25 and fig26 ask for the same
// shared pair runs, from several workers at once.
func TestParallelMatchesSequential(t *testing.T) {
	ids := []string{"fig5", "fig19", "fig21", "table3", "fig23", "fig25", "fig26", "slo"}

	mkRunner := func(workers int) *Runner {
		opts := DefaultOptions()
		opts.Requests = 2
		opts.Workers = workers
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	seq := mkRunner(1)
	par := mkRunner(4) // oversubscribed on small machines: still must match

	seqRes, err := seq.RunMany(ids)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := par.RunMany(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		st, pt := seqRes[i].Table(), parRes[i].Table()
		if st != pt {
			t.Errorf("%s: parallel table differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", id, st, pt)
		}
	}
}

// TestRunManyOrdersResults checks RunMany returns results positionally:
// each result renders the table a sequential Run of its id renders.
func TestRunManyOrdersResults(t *testing.T) {
	opts := DefaultOptions()
	opts.Requests = 2
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"fig4", "fig2", "fig12"}
	res, err := r.RunMany(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		one, err := r.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Table() != one.Table() {
			t.Fatalf("result %d does not render %s's table", i, id)
		}
	}
}

// TestRunPairSharesDefaultCoreRuns checks which pair runs are shared:
// unsampled runs on the runner's core are simulated once and every call
// returns that result; a sampled run, or one on another core, is
// simulated afresh on every call.
func TestRunPairSharesDefaultCoreRuns(t *testing.T) {
	r := testRunner(t)
	run := func(core arch.CoreConfig, sample bool) *sched.Result {
		t.Helper()
		res, err := r.runPair(workload.Pairs()[0], sched.Neu10, core, sample)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	core := r.opts.Core
	shared := run(core, false)
	if run(core, false) != shared {
		t.Error("a repeated run on the runner's core was simulated again")
	}
	if sampled := run(core, true); sampled == shared || run(core, true) == sampled {
		t.Error("a sampled run was shared")
	}
	other := core.WithHBMBandwidth(2 * core.HBMBwBytes)
	if run(other, false) == run(other, false) {
		t.Error("a run on another core was shared")
	}
}
