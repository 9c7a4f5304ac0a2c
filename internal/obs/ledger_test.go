package obs

import (
	"bytes"
	"testing"
)

// TestNilLedgerIsSafeAndFree locks the disabled-path contract down:
// every method of a nil *Ledger must no-op, and the whole hook surface
// must allocate nothing.
func TestNilLedgerIsSafeAndFree(t *testing.T) {
	var l *Ledger
	if l.Completed() != nil || l.Replicas() != nil {
		t.Fatal("nil ledger has records")
	}
	if l.Open() != 0 || l.Drops() != 0 || l.Violations() != 0 {
		t.Fatal("nil ledger has counters")
	}
	if tot := l.SegTotals("p"); tot != ([numSegments]float64{}) {
		t.Fatal("nil ledger has totals")
	}
	var buf bytes.Buffer
	if err := WriteLedgerCSVAll(&buf, []*Ledger{l}); err != nil || buf.String() != LedgerCSVHeader {
		t.Fatalf("nil ledger exports %q, %v", buf.String(), err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.ReqStart("p", 1, 0)
		l.ReqSeg("p", 1, SegService, 1)
		l.ReqSuspend("p", 1, 2)
		l.ReqResume("p", 1, 3)
		l.ReqFirstToken("p", 1, 3)
		l.ReqDone("p", 1, 4, 2)
		l.ReqDrop("p", 2)
		l.RepSpawn("p", 0, 0)
		l.RepMark(0, BucketDecode, 1)
		l.RepCrash(0, 2)
		l.RepRetire(0, 3)
		l.FinishReps(4)
	})
	if allocs > 0 {
		t.Fatalf("nil ledger allocates %.1f objects per hook batch, want 0", allocs)
	}
}

// TestLedgerRequestConservation walks one request through a full
// excursion — queue, KV stall, prefill, a preempted decode gap, decode —
// and checks exact segment accounting plus the derived metrics.
func TestLedgerRequestConservation(t *testing.T) {
	l := NewLedger("run", 1e9)
	l.ReqStart("ten", 1, 100)
	l.ReqSeg("ten", 1, SegKVStall, 200)   // queue:   100
	l.ReqSeg("ten", 1, SegPrefill, 450)   // kv_stall: 250
	l.ReqFirstToken("ten", 1, 900)        //
	l.ReqSeg("ten", 1, SegDecodeGap, 900) // prefill: 450
	l.ReqSuspend("ten", 1, 1000)          // decode_gap: 100
	l.ReqSuspend("ten", 1, 1100)          // idempotent while suspended
	l.ReqResume("ten", 1, 1400)           // preempt: 400
	l.ReqSeg("ten", 1, SegDecode, 1500)   // decode_gap: +100
	l.ReqFirstToken("ten", 1, 1600)       // first call won; no restamp
	l.ReqDone("ten", 1, 2100, 5)          // decode:  600
	if v := l.Violations(); v != 0 {
		t.Fatalf("%d violations on a legal walk", v)
	}
	recs := l.Completed()
	if len(recs) != 1 || l.Open() != 0 {
		t.Fatalf("%d completed / %d open, want 1/0", len(recs), l.Open())
	}
	r := recs[0]
	want := map[Segment]float64{
		SegQueue: 100, SegKVStall: 250, SegPrefill: 450,
		SegDecodeGap: 200, SegPreempt: 400, SegDecode: 600,
	}
	for s, v := range want {
		if r.Seg[s] != v {
			t.Errorf("%s = %v cycles, want %v", s, r.Seg[s], v)
		}
	}
	if e := r.E2E(); e != 2000 {
		t.Errorf("E2E %v, want 2000", e)
	}
	if ttft := r.TTFT(); ttft != 800 {
		t.Errorf("TTFT %v, want 800 (first stamp wins)", ttft)
	}
	if tpot := r.TPOT(); tpot != 300 { // (2100-900)/(5-1)
		t.Errorf("TPOT %v, want 300", tpot)
	}
	if dom := r.Dominant(); dom != SegDecode {
		t.Errorf("dominant %s, want decode", dom)
	}
	if tot := l.SegTotals("ten"); tot[SegPreempt] != 400 {
		t.Errorf("tenant totals not folded: preempt %v, want 400", tot[SegPreempt])
	}
}

// TestLedgerReplicaConservation: bucket spans must partition each
// replica's lifetime, with crashes re-attributing the open span to
// BucketFaulted and FinishReps sealing survivors at end-of-run.
func TestLedgerReplicaConservation(t *testing.T) {
	l := NewLedger("run", 1e9)
	l.RepSpawn("ten", 0, 0)
	l.RepMark(0, BucketPrefill, 100) // idle: 100
	l.RepMark(0, BucketIdle, 400)    // prefill: 300
	l.RepMark(0, BucketDecode, 500)  // idle: +100
	l.RepCrash(0, 900)               // faulted: 400 (the open decode span)
	l.RepMark(0, BucketIdle, 950)    // sealed: must be ignored
	l.RepSpawn("ten", 1, 200)
	l.RepMark(1, BucketService, 300) // idle: 100
	l.FinishReps(1000)               // service: 700
	if v := l.Violations(); v != 0 {
		t.Fatalf("%d violations on a legal fleet history", v)
	}
	reps := l.Replicas()
	if len(reps) != 2 {
		t.Fatalf("%d replica records, want 2", len(reps))
	}
	crashed := reps[0]
	if crashed.Buckets[BucketFaulted] != 400 || crashed.Buckets[BucketDecode] != 0 {
		t.Errorf("crash did not re-attribute the open span: %v", crashed.Buckets)
	}
	if crashed.Lifetime() != 900 {
		t.Errorf("crashed lifetime %v, want 900", crashed.Lifetime())
	}
	for _, r := range reps {
		var sum float64
		for _, v := range r.Buckets {
			sum += v
		}
		if sum != r.Lifetime() {
			t.Errorf("replica %d buckets sum to %v, lifetime %v", r.UID, sum, r.Lifetime())
		}
	}
}

// TestLedgerViolations: protocol errors — double-start, hooks on
// unknown requests, a completion whose stamps cannot reconcile — must
// count instead of panicking or passing silently.
func TestLedgerViolations(t *testing.T) {
	l := NewLedger("run", 1e9)
	l.ReqStart("ten", 1, 0)
	l.ReqStart("ten", 1, 5)           // double start
	l.ReqSeg("ten", 99, SegDecode, 5) // unknown request
	l.ReqDone("ten", 98, 10, 0)       // unknown completion
	if v := l.Violations(); v != 3 {
		t.Fatalf("%d violations, want 3", v)
	}
	// A completion BEFORE the last transition stamp breaks telescoping
	// (the final interval goes negative on one segment and positive
	// nowhere else only if stamps run backwards — simulate that).
	l2 := NewLedger("run", 1e9)
	l2.ReqStart("ten", 1, 0)
	l2.ReqSeg("ten", 1, SegService, 100)
	r := l2.reqs[reqKey{"ten", 1}]
	r.Seg[SegQueue] += 7 // corrupt the books
	l2.ReqDone("ten", 1, 200, 0)
	if v := l2.Violations(); v != 1 {
		t.Fatalf("%d violations after corrupted books, want 1", v)
	}
}

// TestLedgerDrop: dropped requests leave the open set without entering
// the completed list, and double-drops do not double-count.
func TestLedgerDrop(t *testing.T) {
	l := NewLedger("run", 1e9)
	l.ReqStart("ten", 1, 0)
	l.ReqDrop("ten", 1)
	l.ReqDrop("ten", 1)
	if l.Open() != 0 || l.Drops() != 1 || len(l.Completed()) != 0 {
		t.Fatalf("open %d / drops %d / done %d, want 0/1/0", l.Open(), l.Drops(), len(l.Completed()))
	}
}

// TestLedgerCSV pins the export schema and determinism: long-format
// rows, nonzero entries only, requests in completion order then
// replicas as tenant "fleet", cycles converted to milliseconds.
func TestLedgerCSV(t *testing.T) {
	mk := func() *Ledger {
		l := NewLedger("run", 1e9) // 1e6 cycles per ms
		l.ReqStart("ten", 1, 0)
		l.ReqSeg("ten", 1, SegService, 2e6)
		l.ReqDone("ten", 1, 5e6, 0)
		l.RepSpawn("ten", 0, 0)
		l.RepMark(0, BucketService, 2e6)
		l.RepRetire(0, 5e6)
		return l
	}
	var buf bytes.Buffer
	if err := WriteLedgerCSVAll(&buf, []*Ledger{mk(), nil}); err != nil {
		t.Fatal(err)
	}
	want := LedgerCSVHeader +
		"run,ten,1,queue,2\n" +
		"run,ten,1,service,3\n" +
		"run,fleet,0,service,3\n" +
		"run,fleet,0,idle,2\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", buf.String(), want)
	}
	var again bytes.Buffer
	if err := WriteLedgerCSVAll(&again, []*Ledger{mk(), nil}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("ledger CSV export is not deterministic")
	}
}
