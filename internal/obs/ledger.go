// Ledger is the attribution half of the observability subsystem: exact,
// conservation-checked accounting of where every cycle went.
//
// Two books are kept:
//
//   - Per-request segments: each tracked request is, at every instant
//     between arrival and completion, in exactly ONE segment (queued,
//     stalled on KV, computing a prefill, suspended by a preemption,
//     riding a migration, ...). Segment transitions close the open
//     interval into the outgoing segment's accumulator, so the segments
//     partition the lifetime by construction and sum EXACTLY — in
//     cycles, no epsilon — to completion−arrival. ReqDone checks that
//     invariant on every completion.
//   - Fleet cycle buckets: each replica is, at every instant between
//     spawn and retire, in exactly one bucket (prefill/decode/service
//     compute, migration, drain, faulted, idle), so Σ buckets equals the
//     replica's lifetime and, fleet-wide, the integrated capacity.
//     RepRetire/FinishReps check that per replica.
//
// Exactness leans on the simulator's clock: timestamps arrive as
// float64(sim.Time), integral values far below 2^53, so differences and
// telescoping sums are computed without rounding. A failed invariant
// increments Violations() instead of panicking — property tests assert
// it stays zero across every scenario.
//
// The Ledger follows the Tracer's design rules: every method is
// nil-receiver-safe (a disabled run passes nil and pays one pointer
// test per hook, allocating nothing), recording is single-threaded by
// the run's own event loop, and all output — records, CSV, totals — is
// a deterministic function of the simulation.
package obs

import (
	"io"
	"strconv"
)

// Segment identifies one exclusive state of a tracked request's
// lifetime. The set is exhaustive for the serving simulator's paths:
// single-shot, continuous/static LLM batching, paged KV (eviction
// recompute and swapping), chunked prefill + migration, preemptive
// sharing, and crash recovery.
type Segment uint8

const (
	// SegQueue: waiting in a slot queue for admission/batching.
	SegQueue Segment = iota
	// SegKVStall: at the head of the queue, admissible but for KV-cache
	// capacity (the accountant or pager could not grant the blocks).
	SegKVStall
	// SegService: single-shot whole-model batch compute.
	SegService
	// SegPrefill: prompt (or prompt-chunk) compute of the first pass.
	SegPrefill
	// SegChunkGap: admitted to a prefill slot, between prompt chunks.
	SegChunkGap
	// SegMigrate: KV migration — parked in the migration queue or in
	// flight on the interconnect (includes evacuation transfers).
	SegMigrate
	// SegDecode: decode-iteration compute the request participates in.
	SegDecode
	// SegDecodeGap: in the running set between decode iterations (or
	// between prefill completion and the first decode launch).
	SegDecodeGap
	// SegPreempt: suspended mid-service by a preemption. Only
	// Ledger.ReqSuspend enters it.
	SegPreempt
	// SegSwapOut: paged KV being written to host memory after eviction.
	SegSwapOut
	// SegSwapQ: fully swapped out, waiting for residency to return.
	SegSwapQ
	// SegSwapIn: paged KV being read back from host memory.
	SegSwapIn
	// SegReplay: re-running prefill over tokens lost to an eviction
	// under the recompute policy.
	SegReplay
	// SegCrashRequeue: back in a queue after the serving replica
	// crashed.
	SegCrashRequeue
	// SegCrashReplay: re-running prefill over the prompt plus any
	// generated prefix lost to a crash.
	SegCrashReplay

	numSegments
)

// NumSegments is the number of request segments.
const NumSegments = int(numSegments)

var segmentNames = [...]string{
	SegQueue:        "queue",
	SegKVStall:      "kv_stall",
	SegService:      "service",
	SegPrefill:      "prefill",
	SegChunkGap:     "chunk_gap",
	SegMigrate:      "migrate",
	SegDecode:       "decode",
	SegDecodeGap:    "decode_gap",
	SegPreempt:      "preempt",
	SegSwapOut:      "swap_out",
	SegSwapQ:        "swap_q",
	SegSwapIn:       "swap_in",
	SegReplay:       "replay",
	SegCrashRequeue: "crash_requeue",
	SegCrashReplay:  "crash_replay",
}

func (s Segment) String() string { return enumName(segmentNames[:], int(s), "segment") }

// Bucket identifies one exclusive state of a replica's lifetime in the
// fleet cycle ledger.
type Bucket uint8

const (
	// BucketPrefill: running a prefill (or chunked-prefill) batch.
	BucketPrefill Bucket = iota
	// BucketDecode: running a decode-iteration batch.
	BucketDecode
	// BucketService: running a single-shot whole-model batch.
	BucketService
	// BucketMigration: otherwise idle but holding in-flight inbound KV
	// transfers (a slot that must not retire, doing wire work).
	BucketMigration
	// BucketDrain: draining — refused new work, finishing off or empty.
	BucketDrain
	// BucketFaulted: compute destroyed by a crash — the open busy span
	// at teardown time is re-attributed here.
	BucketFaulted
	// BucketIdle: in service, no work bound.
	BucketIdle

	numBuckets
)

// NumBuckets is the number of replica cycle buckets.
const NumBuckets = int(numBuckets)

var bucketNames = [...]string{
	BucketPrefill:   "prefill",
	BucketDecode:    "decode",
	BucketService:   "service",
	BucketMigration: "migration",
	BucketDrain:     "drain",
	BucketFaulted:   "faulted",
	BucketIdle:      "idle",
}

func (b Bucket) String() string { return enumName(bucketNames[:], int(b), "bucket") }

// enumName returns names[i], or kind(i) past the end of names.
func enumName(names []string, i int, kind string) string {
	if i < len(names) {
		return names[i]
	}
	return kind + "(" + strconv.Itoa(i) + ")"
}

// ReqRecord is one completed request's segment decomposition. All
// times are in cycles.
type ReqRecord struct {
	Proc      string // owning tenant
	ID        int64  // tenant-scoped request id
	Arrive    float64
	Done      float64
	FirstTok  float64 // first-token emission (0: none recorded)
	OutTokens int     // tokens produced (0 for single-shot requests)
	Seg       [numSegments]float64

	cur   Segment
	since float64
	susp  Segment // segment to restore on resume, while cur is SegPreempt
}

// E2E is the request's end-to-end latency in cycles.
func (r *ReqRecord) E2E() float64 { return r.Done - r.Arrive }

// TTFT is the first-token latency in cycles (0 when no token event was
// recorded — single-shot requests).
func (r *ReqRecord) TTFT() float64 {
	if r.FirstTok == 0 {
		return 0
	}
	return r.FirstTok - r.Arrive
}

// TPOT is the mean time per output token after the first, in cycles
// (0 when fewer than two tokens were produced).
func (r *ReqRecord) TPOT() float64 {
	if r.FirstTok == 0 || r.OutTokens < 2 {
		return 0
	}
	return (r.Done - r.FirstTok) / float64(r.OutTokens-1)
}

// Dominant returns the segment holding the largest share of the
// request's lifetime, with ties broken by segment order.
func (r *ReqRecord) Dominant() Segment {
	best := Segment(0)
	for s := Segment(1); s < numSegments; s++ {
		if r.Seg[s] > r.Seg[best] {
			best = s
		}
	}
	return best
}

// RepRecord is one replica's cycle-bucket decomposition. UID is the
// fleet-unique spawn ordinal; Proc the owning tenant.
type RepRecord struct {
	Proc    string
	UID     int
	Spawn   float64
	End     float64
	Buckets [numBuckets]float64

	cur   Bucket
	since float64
	open  bool
}

// Lifetime is the replica's in-service span in cycles.
func (r *RepRecord) Lifetime() float64 { return r.End - r.Spawn }

type reqKey struct {
	proc string
	id   int64
}

// Ledger is the attribution recorder for one run. A nil *Ledger is the
// disabled state: every method is a no-op behind one nil test.
type Ledger struct {
	Label  string  // run label (scenario)
	FreqHz float64 // cycles per second, for cycle→ms conversion

	reqs map[reqKey]*ReqRecord // open (in-flight) requests
	done []*ReqRecord          // completed, in completion order

	reps     map[int]*RepRecord
	repOrder []*RepRecord // spawn order

	// totals accumulates completed requests' segments per tenant — the
	// cheap cumulative series the attribution timeline samples.
	totals map[string][numSegments]float64

	drops      int
	violations int
}

// NewLedger builds an empty attribution ledger for one run.
func NewLedger(label string, freqHz float64) *Ledger {
	return &Ledger{
		Label:  label,
		FreqHz: freqHz,
		reqs:   map[reqKey]*ReqRecord{},
		reps:   map[int]*RepRecord{},
		totals: map[string][numSegments]float64{},
	}
}

// close folds the open interval into the current segment and restamps.
func (r *ReqRecord) close(at float64) {
	r.Seg[r.cur] += at - r.since
	r.since = at
}

// ReqStart opens a request record at its arrival instant; the request
// starts in SegQueue. Double-starts count as violations.
func (l *Ledger) ReqStart(proc string, id int64, at float64) {
	if l == nil {
		return
	}
	if l.req(proc, id) != nil {
		l.violations++
		return
	}
	l.reqs[reqKey{proc, id}] = &ReqRecord{Proc: proc, ID: id, Arrive: at, cur: SegQueue, since: at}
}

// ReqSeg transitions the request into seg, closing the open interval
// into the outgoing segment. Unknown requests (a hook firing before
// ReqStart) count as violations.
func (l *Ledger) ReqSeg(proc string, id int64, seg Segment, at float64) {
	if r := l.req(proc, id); r != nil {
		r.close(at)
		r.cur = seg
	} else if l != nil {
		l.violations++
	}
}

// ReqSuspend parks the request in SegPreempt, remembering the segment
// to restore on resume. Idempotent while suspended.
func (l *Ledger) ReqSuspend(proc string, id int64, at float64) {
	if r := l.req(proc, id); r != nil && r.cur != SegPreempt {
		r.close(at)
		r.susp = r.cur
		r.cur = SegPreempt
	}
}

// ReqResume restores the segment ReqSuspend parked.
func (l *Ledger) ReqResume(proc string, id int64, at float64) {
	if r := l.req(proc, id); r != nil && r.cur == SegPreempt {
		r.close(at)
		r.cur = r.susp
	}
}

// req returns the open record of request id of proc, or nil; a nil
// ledger has none.
func (l *Ledger) req(proc string, id int64) *ReqRecord {
	if l == nil {
		return nil
	}
	return l.reqs[reqKey{proc, id}]
}

// ReqFirstToken stamps the request's first-token emission (first call
// wins — a crash replay whose token was already delivered must not
// restamp).
func (l *Ledger) ReqFirstToken(proc string, id int64, at float64) {
	if r := l.req(proc, id); r != nil && r.FirstTok == 0 {
		r.FirstTok = at
	}
}

// ReqDone closes the record at the completion instant, checks the
// conservation invariant (Σ segments == done − arrive, exactly) and
// moves the record to the completed list.
func (l *Ledger) ReqDone(proc string, id int64, at float64, outTokens int) {
	r := l.req(proc, id)
	if r == nil {
		if l != nil {
			l.violations++
		}
		return
	}
	r.close(at)
	r.Done = at
	r.OutTokens = outTokens
	if sum(r.Seg[:]) != at-r.Arrive {
		l.violations++
	}
	delete(l.reqs, reqKey{proc, id})
	l.done = append(l.done, r)
	tot := l.totals[proc]
	for i, v := range r.Seg {
		tot[i] += v
	}
	l.totals[proc] = tot
}

// ReqDrop discards an open record — a request lost to a crash or a
// recovery policy, whose lifetime will never complete.
func (l *Ledger) ReqDrop(proc string, id int64) {
	if l.req(proc, id) != nil {
		delete(l.reqs, reqKey{proc, id})
		l.drops++
	}
}

// RepSpawn opens a replica's cycle record; it starts in BucketIdle.
func (l *Ledger) RepSpawn(proc string, uid int, at float64) {
	if l == nil {
		return
	}
	if _, ok := l.reps[uid]; ok {
		l.violations++
		return
	}
	r := &RepRecord{Proc: proc, UID: uid, Spawn: at, cur: BucketIdle, since: at, open: true}
	l.reps[uid] = r
	l.repOrder = append(l.repOrder, r)
}

// RepMark transitions the replica into bucket b, closing the open span
// into the outgoing bucket.
func (l *Ledger) RepMark(uid int, b Bucket, at float64) {
	if l == nil {
		return
	}
	r := l.reps[uid]
	if r == nil || !r.open {
		return
	}
	r.Buckets[r.cur] += at - r.since
	r.since = at
	r.cur = b
}

// RepCrash ends a replica's lifetime at a fault, re-attributing the
// open span — whatever work was in flight — to BucketFaulted.
func (l *Ledger) RepCrash(uid int, at float64) { l.closeRep(uid, true, at) }

// RepRetire ends a replica's lifetime at a graceful retire.
func (l *Ledger) RepRetire(uid int, at float64) { l.closeRep(uid, false, at) }

// FinishReps seals every still-open replica record at the end-of-run
// instant, so Σ buckets == integrated capacity over the whole fleet.
func (l *Ledger) FinishReps(at float64) {
	if l == nil {
		return
	}
	for _, r := range l.repOrder {
		l.closeRep(r.UID, false, at)
	}
}

// closeRep ends replica uid's lifetime at `at`: the open span goes to
// its current bucket, or to BucketFaulted at a crash, and the buckets
// must sum to the lifetime. A missing or closed record is left alone.
func (l *Ledger) closeRep(uid int, crashed bool, at float64) {
	if l == nil {
		return
	}
	r := l.reps[uid]
	if r == nil || !r.open {
		return
	}
	if crashed {
		r.cur = BucketFaulted
	}
	r.Buckets[r.cur] += at - r.since
	r.End = at
	r.open = false
	if sum(r.Buckets[:]) != r.End-r.Spawn {
		l.violations++
	}
}

// sum adds vs in order.
func sum(vs []float64) (s float64) {
	for _, v := range vs {
		s += v
	}
	return s
}

// Completed lists completed request records in completion order.
func (l *Ledger) Completed() []*ReqRecord {
	if l == nil {
		return nil
	}
	return l.done
}

// Replicas lists replica records in spawn order.
func (l *Ledger) Replicas() []*RepRecord {
	if l == nil {
		return nil
	}
	return l.repOrder
}

// SegTotals returns the cumulative completed-request segment cycles of
// one tenant (zeros for an unknown tenant).
func (l *Ledger) SegTotals(proc string) [numSegments]float64 {
	if l == nil {
		return [numSegments]float64{}
	}
	return l.totals[proc]
}

// Open counts requests still in flight (must be zero once a run has
// fully drained — every admitted request completes or is dropped).
func (l *Ledger) Open() int {
	if l == nil {
		return 0
	}
	return len(l.reqs)
}

// Drops counts records discarded by ReqDrop.
func (l *Ledger) Drops() int {
	if l == nil {
		return 0
	}
	return l.drops
}

// Violations counts conservation-invariant failures and hook-protocol
// errors; zero on every healthy run.
func (l *Ledger) Violations() int {
	if l == nil {
		return 0
	}
	return l.violations
}

// LedgerCSVHeader is the column row WriteLedgerCSVAll writes first: one
// row per nonzero request segment (tenant/req keyed) and, with tenant
// "fleet", one row per nonzero replica bucket (req column carries the
// uid).
const LedgerCSVHeader = "run,tenant,req,segment,ms\n"

// appendCSV appends the ledger's rows to x, writing about every
// flushBytes.
func (l *Ledger) appendCSV(x *exportBuf) {
	row := func(tenant string, id int64, seg string, cycles float64) {
		b := append(x.b, l.Label...)
		b = append(b, ',')
		b = append(b, tenant...)
		b = append(b, ',')
		b = strconv.AppendInt(b, id, 10)
		b = append(b, ',')
		b = append(b, seg...)
		b = append(b, ',')
		b = strconv.AppendFloat(b, cycles/l.FreqHz*1e3, 'g', -1, 64)
		x.b = append(b, '\n')
		x.spill()
	}
	for _, r := range l.done {
		if x.err != nil {
			return
		}
		for s, v := range r.Seg {
			if v > 0 {
				row(r.Proc, r.ID, Segment(s).String(), v)
			}
		}
	}
	for _, r := range l.repOrder {
		if x.err != nil {
			return
		}
		for bk, v := range r.Buckets {
			if v > 0 {
				row("fleet", int64(r.UID), Bucket(bk).String(), v)
			}
		}
	}
}

// WriteLedgerCSVAll emits several runs' ledgers under one header in long
// format, runs in slice order (nil ledgers skipped), each run's requests
// in completion order then its replicas in spawn order, segments in
// taxonomy order. Floats use the shortest round-trip representation, so
// the bytes are a deterministic function of the records.
func WriteLedgerCSVAll(w io.Writer, ls []*Ledger) error {
	x := newExportBuf(w)
	x.b = append(x.b, LedgerCSVHeader...)
	for _, l := range ls {
		if l != nil {
			l.appendCSV(x)
		}
	}
	return x.flush()
}
