// Package xfer models the cluster's chip-to-chip interconnect: the
// links a disaggregated serving system ships KV caches (or any other
// bulk payload) over between pNPUs. It is deliberately a fluid model,
// not a packet simulator — the same altitude internal/sched's fluid
// scheduler occupies for compute:
//
//   - A Link has a bandwidth (bytes per core cycle) and a fixed
//     per-transfer latency (propagation + protocol, in cycles).
//   - Concurrent transfers on one link share its bandwidth max-min
//     fairly. With a single bottleneck resource and equally greedy
//     flows, the max-min allocation is the equal share B/n, re-divided
//     whenever a transfer starts or finishes — classic processor
//     sharing. A transfer's payload drains at the current share; its
//     completion fires `latency` cycles after the last byte leaves.
//   - All progress is advanced lazily on the owning sim.Engine's
//     clock: the link keeps exactly one pending event (the earliest
//     completion) and re-derives it whenever membership changes, so a
//     whole run stays deterministic and allocation-light.
//
// Links additionally support runtime degradation (SetBandwidthScale)
// and transfer cancellation (Transfer.Cancel) — the fault-injection
// surface: a degraded link stretches every in-flight copy mid-payload,
// and a crashed endpoint aborts its transfers without their completion
// callbacks ever firing.
//
// A Fabric is the per-pair link directory serving uses: it lazily
// creates one identically-shaped Link per ordered (src, dst) chip pair
// — a fully connected point-to-point topology, the usual abstraction
// for intra-pod NPU interconnects — and aggregates fleet-wide stats.
package xfer

import (
	"fmt"
	"math"
	"slices"

	"neu10/internal/sim"
)

// Transfer is one payload on a link, and the handle Start returns for
// it: it stays valid for the transfer's whole lifetime and supports
// cancellation.
type Transfer struct {
	l         *Link
	remaining float64 // payload bytes still to move
	bytes     int64
	done      func(now sim.Time)

	latSet   bool // payload drained; the latency-phase completion is pending
	latH     sim.Handle
	finished bool // done fired, or the transfer was canceled
}

// Cancel aborts the transfer if it has not completed: its done callback
// will never fire, and any payload still unsent is abandoned (partial
// progress does not count toward BytesMoved — the payload never fully
// drained). Surviving transfers on the link immediately speed up to the
// wider fair share. Reports false when the transfer already completed.
func (t *Transfer) Cancel() bool {
	l := t.l
	if t.finished {
		return false
	}
	t.finished = true
	l.canceled++
	if t.latSet {
		// Payload fully drained; only the latency-phase completion event
		// remains — the bytes moved, but the handoff they announced will
		// never be acted on.
		l.eng.Cancel(t.latH)
		t.latSet = false
		i := slices.Index(l.landing, t)
		l.landing = slices.Delete(l.landing, i, i+1)
		return true
	}
	now := float64(l.eng.Now())
	l.advance(now)
	if i := slices.Index(l.active, t); i >= 0 {
		l.active = slices.Delete(l.active, i, i+1)
	}
	l.reschedule(now)
	return true
}

// Link is one chip-to-chip connection. All methods must be called from
// the owning engine's event context (the single-threaded sim loop).
type Link struct {
	eng        *sim.Engine
	name       string
	bwPerCycle float64 // nominal bytes per cycle
	latency    float64 // cycles added after the last byte drains
	scale      float64 // runtime bandwidth multiplier (fault injection)

	active []*Transfer
	// landing holds drained transfers in the order of their pending
	// latency-phase events (see awaitLanding).
	landing []*Transfer

	// fire's scratch and the two event callbacks, bound once, so a
	// transfer's life allocates only its record.
	finished       []*Transfer
	fireFn, landFn func(now sim.Time)

	// stats
	lastAt     float64
	busyArea   float64 // cycles with ≥1 transfer in flight
	flowArea   float64 // ∫ len(active) dt
	bytesMoved int64
	transfers  int
	canceled   int
	peakActive int

	doneSet bool
	doneH   sim.Handle
}

// NewLink builds a link on the engine's clock. bwPerCycle is in bytes
// per core cycle; latency in cycles.
func NewLink(eng *sim.Engine, name string, bwPerCycle, latency float64) (*Link, error) {
	if bwPerCycle <= 0 {
		return nil, fmt.Errorf("xfer: link %s bandwidth %v bytes/cycle", name, bwPerCycle)
	}
	if latency < 0 {
		return nil, fmt.Errorf("xfer: link %s latency %v cycles", name, latency)
	}
	l := &Link{eng: eng, name: name, bwPerCycle: bwPerCycle, latency: latency,
		scale: 1, lastAt: float64(eng.Now())}
	l.fireFn, l.landFn = l.fire, l.land
	return l, nil
}

// Name returns the link's label.
func (l *Link) Name() string { return l.name }

// Active returns the number of transfers currently in their bandwidth
// phase (latency-phase completions are already off the link).
func (l *Link) Active() int { return len(l.active) }

// Backlog returns the payload bytes still queued on the link across its
// in-flight transfers, advanced to `now` — the instantaneous congestion
// signal the observability sampler records. Advancing is the same lazy
// bookkeeping every other accessor performs, so sampling never perturbs
// completion times.
func (l *Link) Backlog(now float64) float64 {
	l.advance(now)
	var b float64
	for _, t := range l.active {
		if t.remaining > 0 {
			b += t.remaining
		}
	}
	return b
}

// BusyCycles returns the cycles the link has spent with ≥1 transfer in
// flight, advanced to `now` (the utilization integral Stats also
// reports; exposed separately so per-tick samplers can diff it without
// assembling a full Stats).
func (l *Link) BusyCycles(now float64) float64 {
	l.advance(now)
	return l.busyArea
}

// rate is the effective bandwidth: nominal × runtime scale.
func (l *Link) rate() float64 { return l.bwPerCycle * l.scale }

// SetBandwidthScale rescales the link's effective bandwidth at runtime
// — a degraded (scale < 1) or recovered (scale = 1) link under fault
// injection. In-flight transfers stretch or shrink mid-payload.
//
// Progress MUST be advanced at the OLD rate up to now before the rate
// changes: advance() drains the whole [lastAt, now) interval at the
// current share, so mutating the rate first would retroactively apply
// the new bandwidth to an interval already served at the old one —
// skewing both the completion time and the busy/flow integrals the
// Stats report. Only then is the pending completion re-derived at the
// new share.
func (l *Link) SetBandwidthScale(scale float64) error {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 1) {
		return fmt.Errorf("xfer: link %s bandwidth scale %v", l.name, scale)
	}
	now := float64(l.eng.Now())
	l.advance(now)
	l.scale = scale
	l.reschedule(now)
	return nil
}

// Start begins shipping `bytes` over the link. done fires exactly once
// — `latency` cycles after the payload's last byte drains at the link's
// max-min fair share — unless the returned handle is canceled first. A
// zero-byte transfer still pays the latency.
func (l *Link) Start(bytes int64, done func(now sim.Time)) *Transfer {
	now := float64(l.eng.Now())
	l.advance(now)
	l.transfers++
	t := &Transfer{l: l, remaining: float64(bytes), bytes: bytes, done: done}
	if bytes <= 0 {
		l.awaitLanding(t)
		return t
	}
	l.active = append(l.active, t)
	if len(l.active) > l.peakActive {
		l.peakActive = len(l.active)
	}
	l.reschedule(now)
	return t
}

// awaitLanding schedules t's completion latency+1 cycles from now. Every
// landing event is scheduled that far ahead, so they fire in the order
// they were scheduled, which is l.landing's order.
func (l *Link) awaitLanding(t *Transfer) {
	t.latSet = true
	t.latH = l.eng.After(sim.Time(l.latency)+1, l.landFn)
	l.landing = append(l.landing, t)
}

// land completes the transfer at the front of l.landing.
func (l *Link) land(now sim.Time) {
	t := l.landing[0]
	l.landing = slices.Delete(l.landing, 0, 1)
	l.complete(t, now)
}

// complete fires a transfer's done callback exactly once.
func (l *Link) complete(t *Transfer, now sim.Time) {
	t.latSet = false
	t.finished = true
	t.done(now)
}

// advance drains every active transfer at the fair share over
// [lastAt, now) and accrues the utilization integrals.
func (l *Link) advance(now float64) {
	dt := now - l.lastAt
	if dt <= 0 {
		return
	}
	if n := len(l.active); n > 0 {
		share := l.rate() / float64(n)
		for _, t := range l.active {
			t.remaining -= share * dt
		}
		l.busyArea += dt
		l.flowArea += float64(n) * dt
	}
	l.lastAt = now
}

// reschedule re-derives the single pending completion event: the
// transfer with the least remaining payload finishes first (ties drain
// together and complete in the same event, FIFO by start order).
func (l *Link) reschedule(now float64) {
	if l.doneSet {
		l.eng.Cancel(l.doneH)
		l.doneSet = false
	}
	if len(l.active) == 0 {
		return
	}
	min := math.Inf(1)
	for _, t := range l.active {
		if t.remaining < min {
			min = t.remaining
		}
	}
	if min < 0 {
		min = 0
	}
	eta := min / (l.rate() / float64(len(l.active)))
	l.doneSet = true
	l.doneH = l.eng.After(sim.Time(eta)+1, l.fireFn)
}

// fire advances progress and completes every transfer whose payload has
// drained, then reschedules for the survivors. Completions keep start
// order (the slice is filtered in place), so callback order is
// deterministic.
func (l *Link) fire(nowT sim.Time) {
	l.doneSet = false
	now := float64(nowT)
	l.advance(now)
	kept, finished := l.active[:0], l.finished[:0]
	for _, t := range l.active {
		// The event lands ≥1 cycle past the exact drain time, so the
		// earliest transfer is at or below zero; anything within one
		// cycle's fair share of empty drains in the same event.
		if t.remaining <= 1e-9 {
			finished = append(finished, t)
		} else {
			kept = append(kept, t)
		}
	}
	clear(l.active[len(kept):])
	l.active, l.finished = kept, finished
	l.reschedule(now)
	for _, t := range finished {
		l.bytesMoved += t.bytes
		if l.latency > 0 {
			l.awaitLanding(t)
		} else {
			l.complete(t, nowT)
		}
	}
	clear(finished)
	l.finished = finished[:0]
}

// Stats is a link's (or fabric's) aggregate accounting.
type Stats struct {
	Transfers  int     // transfers started
	Canceled   int     // transfers aborted before completion
	BytesMoved int64   // payload bytes fully drained
	BusyCycles float64 // cycles the link spent with ≥1 transfer in flight
	FlowArea   float64 // ∫ active-transfer count dt (mean concurrency × time)
	PeakActive int     // most transfers ever concurrent on one link
}

// Stats snapshots the link's accounting up to `now` (cycles).
func (l *Link) Stats(now float64) Stats {
	l.advance(now)
	return Stats{
		Transfers:  l.transfers,
		Canceled:   l.canceled,
		BytesMoved: l.bytesMoved,
		BusyCycles: l.busyArea,
		FlowArea:   l.flowArea,
		PeakActive: l.peakActive,
	}
}

// Fabric lazily builds one Link per ordered (src, dst) chip pair, all
// identically shaped — a fully connected point-to-point interconnect.
type Fabric struct {
	eng        *sim.Engine
	bwPerCycle float64
	latency    float64
	scale      float64 // applied to existing links and inherited by new ones
	links      map[[2]int]*Link
	// order lists links by creation (an event-driven, therefore
	// deterministic order); Stats folds float sums over it so the
	// rounding of the aggregates never depends on map iteration.
	order []*Link
}

// NewFabric builds an empty fabric; links appear on first use.
func NewFabric(eng *sim.Engine, bwPerCycle, latency float64) (*Fabric, error) {
	if bwPerCycle <= 0 {
		return nil, fmt.Errorf("xfer: fabric bandwidth %v bytes/cycle", bwPerCycle)
	}
	if latency < 0 {
		return nil, fmt.Errorf("xfer: fabric latency %v cycles", latency)
	}
	return &Fabric{eng: eng, bwPerCycle: bwPerCycle, latency: latency, scale: 1, links: map[[2]int]*Link{}}, nil
}

// Link returns the src→dst link, creating it on first use. A loopback
// pair (src == dst) is legal and models an on-chip copy at link speed.
func (f *Fabric) Link(src, dst int) *Link {
	key := [2]int{src, dst}
	if l, ok := f.links[key]; ok {
		return l
	}
	l, err := NewLink(f.eng, fmt.Sprintf("chip%d→chip%d", src, dst), f.bwPerCycle, f.latency)
	if err != nil {
		panic(err) // NewFabric validated the shape; unreachable
	}
	// A link born inside a fabric-wide degradation window is degraded
	// from its first byte.
	l.scale = f.scale
	f.links[key] = l
	f.order = append(f.order, l)
	return l
}

// SetBandwidthScale rescales every link — existing and future — by the
// same factor: a fabric-wide degradation (or recovery at scale 1). The
// per-link rescale reschedules each link's in-flight transfers at the
// new fair share.
func (f *Fabric) SetBandwidthScale(scale float64) error {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 1) {
		return fmt.Errorf("xfer: fabric bandwidth scale %v", scale)
	}
	f.scale = scale
	for _, l := range f.order { // creation order: deterministic
		if err := l.SetBandwidthScale(scale); err != nil {
			return err
		}
	}
	return nil
}

// Links returns how many pair links have been instantiated.
func (f *Fabric) Links() int { return len(f.links) }

// EachLink visits every instantiated link in creation order (an
// event-driven, therefore deterministic order) — the iteration surface
// per-link telemetry samples over.
func (f *Fabric) EachLink(fn func(l *Link)) {
	for _, l := range f.order {
		fn(l)
	}
}

// Stats folds every instantiated link's accounting up to `now`. Peak
// concurrency is the max over links (per-link contention is what the
// max-min share divides by); the other fields are sums.
func (f *Fabric) Stats(now float64) Stats {
	var s Stats
	for _, l := range f.order {
		ls := l.Stats(now)
		s.Transfers += ls.Transfers
		s.Canceled += ls.Canceled
		s.BytesMoved += ls.BytesMoved
		s.BusyCycles += ls.BusyCycles
		s.FlowArea += ls.FlowArea
		if ls.PeakActive > s.PeakActive {
			s.PeakActive = ls.PeakActive
		}
	}
	return s
}
