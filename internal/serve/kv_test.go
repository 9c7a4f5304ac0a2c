package serve

import "testing"

// TestKVAccountantBasics pins the block arithmetic: ceil-division
// reservations, admission against capacity, and exact free/alloc
// round-trips.
func TestKVAccountantBasics(t *testing.T) {
	// 16 blocks at 1 KiB/token.
	a := newKVAccountant(16*kvBlockTokens*1024, 1024, 0)
	if a.totalBlocks != 16 {
		t.Fatalf("capacity carved into %d blocks, want 16", a.totalBlocks)
	}
	if got := a.blocksFor(1); got != 1 {
		t.Errorf("blocksFor(1) = %d, want 1", got)
	}
	if got := a.blocksFor(kvBlockTokens); got != 1 {
		t.Errorf("blocksFor(%d) = %d, want 1", kvBlockTokens, got)
	}
	if got := a.blocksFor(kvBlockTokens + 1); got != 2 {
		t.Errorf("blocksFor(%d) = %d, want 2", kvBlockTokens+1, got)
	}
	if !a.fits(16) {
		t.Error("full-capacity reservation should fit an empty accountant")
	}
	if a.fits(17) {
		t.Error("over-capacity reservation must not fit")
	}
	a.alloc(10, 1)
	if a.fits(7) {
		t.Error("7 blocks cannot fit with 10/16 used")
	}
	if !a.fits(6) {
		t.Error("6 blocks must fit with 10/16 used")
	}
	a.free(10, 2)
	if a.usedBlocks != 0 {
		t.Errorf("used %d after symmetric free, want 0", a.usedBlocks)
	}
	if a.peakBlocks != 10 {
		t.Errorf("peak %d, want 10", a.peakBlocks)
	}
}

// TestKVAccountantOccupancyIntegral checks the time-weighted occupancy
// area: 10 blocks held for 4 cycles then 2 blocks for 6 cycles is an
// area of 52 block·cycles.
func TestKVAccountantOccupancyIntegral(t *testing.T) {
	a := newKVAccountant(16*kvBlockTokens, 1, 0) // 16 blocks at 1 B/token
	a.alloc(10, 0)
	a.free(8, 4) // 10 blocks over [0,4)
	a.accrue(10) // 2 blocks over [4,10)
	if want := 10.0*4 + 2.0*6; a.usedArea != want {
		t.Errorf("occupancy area %v, want %v", a.usedArea, want)
	}
	// Accrue is monotonic: a stale timestamp must not rewind the clock.
	a.accrue(5)
	if want := 10.0*4 + 2.0*6; a.usedArea != want {
		t.Errorf("stale accrue changed the area to %v", a.usedArea)
	}
}

// TestFoldKVFinalizesAccrual is the regression test for the fold-time
// accrual (tenant.go foldKV): folding a backend whose ledger saw no
// traffic since its last event must still integrate the occupancy tail
// up to the fold instant. Without foldKV's leading accrue, a replica
// holding blocks quietly from its last alloc to retirement would
// under-report its whole tail of occupancy.
func TestFoldKVFinalizesAccrual(t *testing.T) {
	a := newKVAccountant(16*kvBlockTokens, 1, 0) // 16 blocks, born at t=0
	a.alloc(4, 0)                                // 4 blocks held, no further ledger traffic
	ten := &tenantState{}
	ten.foldKV(a, 100)
	if want := 4.0 * 100; ten.kvUsedArea != want {
		t.Errorf("folded occupancy area %v, want %v — the fold did not finalize the accrual", ten.kvUsedArea, want)
	}
	if want := 16.0 * 100; ten.kvBlockArea != want {
		t.Errorf("folded capacity area %v, want %v", ten.kvBlockArea, want)
	}
	if want := 4.0 / 16.0; ten.kvPeakFrac != want {
		t.Errorf("folded peak fraction %v, want %v", ten.kvPeakFrac, want)
	}
}

// TestKVAccountantGuards: the accountant panics on overcommit and
// over-free — both are scheduler bugs, never load conditions.
func TestKVAccountantGuards(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	a := newKVAccountant(4*kvBlockTokens, 1, 0)
	expectPanic("overcommit", func() { a.alloc(5, 0) })
	b := newKVAccountant(4*kvBlockTokens, 1, 0)
	expectPanic("over-free", func() { b.free(1, 0) })
}
