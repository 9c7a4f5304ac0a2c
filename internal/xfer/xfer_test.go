package xfer

import (
	"math"
	"testing"

	"neu10/internal/sim"
)

// TestSoloTransferTiming pins the base timing model: a solo transfer of
// B bytes on a link of bw bytes/cycle completes after B/bw cycles plus
// the fixed latency (each scheduling hop may add up to one cycle of
// quantization, never more).
func TestSoloTransferTiming(t *testing.T) {
	eng := sim.NewEngine()
	l, err := NewLink(eng, "test", 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	l.Start(1000, func(now sim.Time) { doneAt = now })
	eng.Run()
	// 1000 B at 10 B/cycle = 100 cycles drain + 100 latency = 200.
	if doneAt < 200 || doneAt > 202 {
		t.Errorf("solo transfer completed at %d, want 200 (+≤2 quantization)", doneAt)
	}
	st := l.Stats(float64(eng.Now()))
	if st.BytesMoved != 1000 || st.Transfers != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.BusyCycles < 100 || st.BusyCycles > 102 {
		t.Errorf("busy %v cycles, want ~100", st.BusyCycles)
	}
}

// TestMaxMinFairSharing: two equal transfers started together each get
// half the bandwidth and finish together at twice the solo drain time;
// a short transfer started alongside a long one finishes first, after
// which the long one reclaims the full bandwidth (the max-min
// re-division on membership change).
func TestMaxMinFairSharing(t *testing.T) {
	eng := sim.NewEngine()
	l, err := NewLink(eng, "test", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	var aAt, bAt sim.Time
	l.Start(1000, func(now sim.Time) { aAt = now })
	l.Start(1000, func(now sim.Time) { bAt = now })
	eng.Run()
	// Each drains at 5 B/cycle: 200 cycles, together.
	if aAt < 200 || aAt > 202 || bAt != aAt {
		t.Errorf("equal pair completed at %d / %d, want both ~200", aAt, bAt)
	}

	eng = sim.NewEngine()
	l, _ = NewLink(eng, "test", 10, 0)
	var longAt, shortAt sim.Time
	l.Start(2000, func(now sim.Time) { longAt = now })
	l.Start(500, func(now sim.Time) { shortAt = now })
	eng.Run()
	// Shared until the short one drains: 500 B at 5 B/cycle = 100 cycles
	// (long has 1500 left). Then the long one runs solo: 150 more.
	if shortAt < 100 || shortAt > 102 {
		t.Errorf("short transfer at %d, want ~100", shortAt)
	}
	if longAt < 250 || longAt > 254 {
		t.Errorf("long transfer at %d, want ~250", longAt)
	}
	if got := l.Stats(float64(eng.Now())); got.PeakActive != 2 {
		t.Errorf("peak active %d, want 2", got.PeakActive)
	}
}

// TestWorkConservation: however transfers overlap, total bytes over
// total busy time can never beat the link bandwidth, and every started
// transfer completes exactly once.
func TestWorkConservation(t *testing.T) {
	eng := sim.NewEngine()
	l, err := NewLink(eng, "test", 7, 13)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(42)
	const n = 100
	completions := 0
	var total int64
	for i := 0; i < n; i++ {
		bytes := int64(1 + rng.Intn(5000))
		total += bytes
		at := sim.Time(rng.Intn(2000))
		eng.At(at, func(sim.Time) {
			l.Start(bytes, func(sim.Time) { completions++ })
		})
	}
	eng.Run()
	if completions != n {
		t.Fatalf("%d/%d transfers completed", completions, n)
	}
	st := l.Stats(float64(eng.Now()))
	if st.BytesMoved != total {
		t.Errorf("moved %d bytes, want %d", st.BytesMoved, total)
	}
	if rate := float64(st.BytesMoved) / st.BusyCycles; rate > 7*1.01 {
		t.Errorf("effective rate %.2f B/cycle beats the 7 B/cycle link", rate)
	}
	// Busy time is at least the back-to-back drain time of all bytes.
	if st.BusyCycles < float64(total)/7-1 {
		t.Errorf("busy %.0f cycles < serialized drain %.0f — bytes teleported", st.BusyCycles, float64(total)/7)
	}
}

// TestZeroByteTransfer still pays the latency and completes once.
func TestZeroByteTransfer(t *testing.T) {
	eng := sim.NewEngine()
	l, _ := NewLink(eng, "test", 10, 50)
	var at sim.Time
	fired := 0
	l.Start(0, func(now sim.Time) { at = now; fired++ })
	eng.Run()
	if fired != 1 || at < 50 || at > 52 {
		t.Errorf("zero-byte transfer fired %d times at %d, want once at ~50", fired, at)
	}
}

// TestDeterministicReplay: the same schedule replays to identical
// completion times and stats.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]sim.Time, Stats) {
		eng := sim.NewEngine()
		f, err := NewFabric(eng, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(7)
		var times []sim.Time
		for i := 0; i < 40; i++ {
			src, dst := rng.Intn(4), rng.Intn(4)
			bytes := int64(1 + rng.Intn(999))
			at := sim.Time(rng.Intn(500))
			eng.At(at, func(sim.Time) {
				f.Link(src, dst).Start(bytes, func(now sim.Time) { times = append(times, now) })
			})
		}
		eng.Run()
		return times, f.Stats(float64(eng.Now()))
	}
	t1, s1 := run()
	t2, s2 := run()
	if len(t1) != 40 || len(t2) != 40 {
		t.Fatalf("completions %d / %d, want 40", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("replay diverged at completion %d: %d vs %d", i, t1[i], t2[i])
		}
	}
	if s1 != s2 {
		t.Errorf("replay stats diverged: %+v vs %+v", s1, s2)
	}
}

// TestFabricPairIsolation: transfers on distinct chip pairs do not
// contend — two simultaneous transfers on different pairs finish in
// solo time, and the fabric reports two links.
func TestFabricPairIsolation(t *testing.T) {
	eng := sim.NewEngine()
	f, err := NewFabric(eng, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	var aAt, bAt sim.Time
	f.Link(0, 1).Start(1000, func(now sim.Time) { aAt = now })
	f.Link(2, 3).Start(1000, func(now sim.Time) { bAt = now })
	eng.Run()
	if aAt > 102 || bAt > 102 {
		t.Errorf("pair-isolated transfers at %d / %d, want both ~100 (no contention)", aAt, bAt)
	}
	if f.Links() != 2 {
		t.Errorf("fabric instantiated %d links, want 2", f.Links())
	}
	if st := f.Stats(float64(eng.Now())); st.BytesMoved != 2000 || st.PeakActive != 1 {
		t.Errorf("fabric stats %+v, want 2000 bytes, peak 1 per link", st)
	}
}

// TestBandwidthRescaleMidCopy pins the degraded-link timing model —
// and is the regression test for the progress-accounting skew: scaling
// a link that has NOT advanced its transfers to `now` first would
// retroactively re-price the whole elapsed interval at the new rate.
// 1000 B at 1 B/cycle, halved at t=500: the first 500 B drain at full
// rate, the remaining 500 B at 0.5 B/cycle take 1000 more cycles —
// completion at exactly 1500 (+ event quantization), not 2000 (whole
// copy at the degraded rate) and not 1000 (whole copy at full rate).
func TestBandwidthRescaleMidCopy(t *testing.T) {
	eng := sim.NewEngine()
	l, err := NewLink(eng, "test", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	l.Start(1000, func(now sim.Time) { doneAt = now })
	eng.At(500, func(sim.Time) {
		if err := l.SetBandwidthScale(0.5); err != nil {
			t.Errorf("SetBandwidthScale: %v", err)
		}
	})
	eng.Run()
	if doneAt < 1500 || doneAt > 1503 {
		t.Errorf("degraded copy completed at %d, want exactly 1500 (+≤3 quantization)", doneAt)
	}
	// Busy time covers the whole stretched copy; bytes are conserved.
	st := l.Stats(float64(eng.Now()))
	if st.BytesMoved != 1000 {
		t.Errorf("moved %d bytes, want 1000", st.BytesMoved)
	}
	if st.BusyCycles < 1500 || st.BusyCycles > 1503 {
		t.Errorf("busy %.0f cycles, want ~1500", st.BusyCycles)
	}

	// A flap (degrade then restore) splits the copy into three exact
	// phases: 250 B at 1 B/cycle, then 500 cycles at 0.25 B/cycle move
	// 125 B, then the remaining 625 B at full rate — 250+500+625 = 1375.
	eng = sim.NewEngine()
	l, _ = NewLink(eng, "test", 1, 0)
	doneAt = 0
	l.Start(1000, func(now sim.Time) { doneAt = now })
	eng.At(250, func(sim.Time) { _ = l.SetBandwidthScale(0.25) })
	eng.At(750, func(sim.Time) { _ = l.SetBandwidthScale(1) })
	eng.Run()
	if doneAt < 1375 || doneAt > 1379 {
		t.Errorf("flapped copy completed at %d, want exactly 1375 (+≤4 quantization)", doneAt)
	}

	if err := l.SetBandwidthScale(0); err == nil {
		t.Error("zero bandwidth scale accepted")
	}
	if err := l.SetBandwidthScale(-2); err == nil {
		t.Error("negative bandwidth scale accepted")
	}
	if err := l.SetBandwidthScale(math.Inf(1)); err == nil {
		t.Error("infinite bandwidth scale accepted")
	}
}

// TestFabricRescaleCoversFutureLinks: a fabric-wide degradation applies
// to links instantiated DURING the window too — a migration between a
// fresh chip pair inside an outage is just as slow as on existing pairs.
func TestFabricRescaleCoversFutureLinks(t *testing.T) {
	eng := sim.NewEngine()
	f, err := NewFabric(eng, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Link(0, 1) // exists before the degradation
	if err := f.SetBandwidthScale(0.5); err != nil {
		t.Fatal(err)
	}
	var oldAt, newAt sim.Time
	f.Link(0, 1).Start(1000, func(now sim.Time) { oldAt = now })
	f.Link(2, 3).Start(1000, func(now sim.Time) { newAt = now }) // born degraded
	eng.Run()
	// Both at 5 B/cycle: 200 cycles.
	if oldAt < 200 || oldAt > 202 || newAt < 200 || newAt > 202 {
		t.Errorf("degraded transfers at %d / %d, want both ~200", oldAt, newAt)
	}
	if err := f.SetBandwidthScale(0); err == nil {
		t.Error("zero fabric scale accepted")
	}
}

// TestTransferCancel covers the three cancellation states: mid-payload
// (survivors reclaim bandwidth, no bytes counted), latency phase (bytes
// counted, done never fires), and post-completion (Cancel reports
// false). Exactly the semantics a chip crash needs: the dead endpoint's
// transfers vanish without their landing callbacks ever firing. On a
// zero-latency link, a done that cancels a transfer drained in the same
// event keeps that transfer's done from firing.
func TestTransferCancel(t *testing.T) {
	eng := sim.NewEngine()
	l, _ := NewLink(eng, "test", 10, 0)
	var aAt sim.Time
	bFired := false
	l.Start(2000, func(now sim.Time) { aAt = now })
	tb := l.Start(2000, func(sim.Time) { bFired = true })
	eng.At(100, func(sim.Time) {
		if !tb.Cancel() {
			t.Error("mid-payload cancel reported false")
		}
	})
	eng.Run()
	// Shared 5 B/cycle for 100 cycles (a has 1500 left), then solo at
	// 10 B/cycle: 150 more — a completes at 250, b never does.
	if bFired {
		t.Error("canceled transfer's done fired")
	}
	if aAt < 250 || aAt > 253 {
		t.Errorf("survivor completed at %d, want ~250 (reclaimed bandwidth)", aAt)
	}
	st := l.Stats(float64(eng.Now()))
	if st.BytesMoved != 2000 || st.Canceled != 1 || st.Transfers != 2 {
		t.Errorf("stats %+v, want 2000 B moved, 1 canceled of 2", st)
	}

	// Latency-phase cancel: payload drained (bytes count) but the
	// completion callback is suppressed.
	eng = sim.NewEngine()
	l, _ = NewLink(eng, "test", 10, 1000)
	cFired := false
	tc := l.Start(100, func(sim.Time) { cFired = true })
	eng.At(500, func(sim.Time) { // drain ends ~10; deep in the latency phase
		if !tc.Cancel() {
			t.Error("latency-phase cancel reported false")
		}
	})
	eng.Run()
	if cFired {
		t.Error("latency-phase canceled transfer's done fired")
	}
	if st := l.Stats(float64(eng.Now())); st.BytesMoved != 100 || st.Canceled != 1 {
		t.Errorf("stats %+v, want 100 B moved, 1 canceled", st)
	}

	// Post-completion cancel is a no-op.
	eng = sim.NewEngine()
	l, _ = NewLink(eng, "test", 10, 0)
	td := l.Start(100, func(sim.Time) {})
	eng.Run()
	if td.Cancel() {
		t.Error("cancel after completion reported true")
	}
	if st := l.Stats(float64(eng.Now())); st.Canceled != 0 {
		t.Errorf("completed-then-canceled transfer counted: %+v", st)
	}

	// Zero-byte transfers are cancelable in their (only) latency phase.
	eng = sim.NewEngine()
	l, _ = NewLink(eng, "test", 10, 50)
	zFired := false
	tz := l.Start(0, func(sim.Time) { zFired = true })
	eng.At(10, func(sim.Time) { tz.Cancel() })
	eng.Run()
	if zFired {
		t.Error("canceled zero-byte transfer's done fired")
	}

	// Two transfers drain in one event on a zero-latency link; the
	// first's done cancels the second, whose bytes had drained.
	eng = sim.NewEngine()
	l, _ = NewLink(eng, "test", 10, 0)
	var tf *Transfer
	fFired := false
	l.Start(100, func(sim.Time) {
		if !tf.Cancel() {
			t.Error("cancel of a drained sibling reported false")
		}
	})
	tf = l.Start(100, func(sim.Time) { fFired = true })
	eng.Run()
	if fFired {
		t.Error("sibling canceled by an earlier done in the same drain fired")
	}
	if st := l.Stats(float64(eng.Now())); st.BytesMoved != 200 || st.Canceled != 1 {
		t.Errorf("stats %+v, want 200 B moved, 1 canceled", st)
	}
}

// TestLinkValidation rejects malformed shapes.
func TestLinkValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewLink(eng, "bad", 0, 0); err == nil {
		t.Error("zero-bandwidth link accepted")
	}
	if _, err := NewLink(eng, "bad", 1, -1); err == nil {
		t.Error("negative-latency link accepted")
	}
	if _, err := NewFabric(eng, -1, 0); err == nil {
		t.Error("negative-bandwidth fabric accepted")
	}
	if _, err := NewFabric(eng, 1, math.Inf(-1)); err == nil {
		t.Error("negative-latency fabric accepted")
	}
}

// TestLandingsAfterLatencyPhaseCancel: transfers that drain one after
// another land in drain order, each through its own callback, and
// canceling one in its latency phase leaves the others' landings (time
// and callback) as they were.
func TestLandingsAfterLatencyPhaseCancel(t *testing.T) {
	run := func(cancelB bool) map[string]sim.Time {
		eng := sim.NewEngine()
		l, err := NewLink(eng, "test", 10, 1000)
		if err != nil {
			t.Fatal(err)
		}
		landed := map[string]sim.Time{}
		start := func(name string, bytes int64) *Transfer {
			return l.Start(bytes, func(now sim.Time) { landed[name] = now })
		}
		start("A", 100)
		b := start("B", 200)
		start("C", 300)
		if cancelB {
			// All three drain by cycle ~62; B's landing is pending.
			eng.At(500, func(sim.Time) {
				if !b.Cancel() {
					t.Error("latency-phase cancel reported false")
				}
			})
		}
		eng.Run()
		return landed
	}
	all, some := run(false), run(true)
	if len(all) != 3 || !(all["A"] < all["B"] && all["B"] < all["C"]) {
		t.Fatalf("landings %v, want A < B < C", all)
	}
	if _, ok := some["B"]; ok || len(some) != 2 || some["A"] != all["A"] || some["C"] != all["C"] {
		t.Fatalf("with B canceled: landings %v, want A at %d and C at %d", some, all["A"], all["C"])
	}
}

// TestTransferAllocBudget: a transfer's start-to-landing cycle allocates
// only its record. The link's event callbacks are bound once and fire's
// list of drained transfers is link scratch, so neither a reschedule
// nor a landing allocates.
func TestTransferAllocBudget(t *testing.T) {
	eng := sim.NewEngine()
	l, err := NewLink(eng, "test", 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	landed := 0
	done := func(sim.Time) { landed++ }
	cycle := func() {
		l.Start(1000, done)
		l.Start(3000, done) // overlapping: the first landing reschedules the second
		eng.Run()
	}
	cycle() // grow the engine's heap and the link's scratch
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 2 {
		t.Fatalf("two transfers allocate %.0f objects start to landing, want ≤ 2 (one record each)", allocs)
	}
	if landed != 2*52 {
		t.Fatalf("%d landings, want %d", landed, 2*52)
	}
}
