package serve

import (
	"fmt"

	"neu10/internal/sim"
)

// Fault injection and chaos serving. A production fleet the paper's
// virtualization layer targets loses chips, links flap, and whole pods
// go dark; the fleet here only ever changed by autoscaler intent. A
// FaultPlan schedules deterministic fault events on the sim clock —
// replica/chip crashes, correlated pod outages, degraded and flapping
// interconnect links — and a RecoveryConfig enables the machinery that
// absorbs them: warm spares, crash-triggered emergency spawns that
// bypass the autoscaler's observation window, and migration-based
// evacuation that rebalances a decode pool over the PR-5 KV-migration
// path. Everything runs inside engine events, so a chaos run is exactly
// as reproducible as a healthy one.
//
// Crash semantics (destroyReplica): the replica is removed instantly —
// no graceful drain. Resident KV is lost with the chip; in-flight and
// queued requests are re-queued to surviving slots (re-entering through
// the ordinary router and admission control), and a partially-generated
// sequence is replayed: its generated prefix folds into the prompt
// (prompt' = prompt+produced, output' = output−produced), so the lost
// KV is recomputed by one prefill over prompt+produced tokens, priced
// through the ordinary prefill cost path (model.LLMPrefillChunk on
// chunked pools), and decoding resumes at the next token. End-to-end
// latency keeps the original arrival, so the crash penalty lands on
// the SLO.
// In-flight KV migrations touching the dead chip abort with exact
// conservation: a reservation charged to a dead target rolls back on
// the source's surviving books, a transfer whose source died frees the
// target's reservation at abort, and nothing lands twice.

// FaultKind is one fault event's mechanism.
type FaultKind int

const (
	// FaultCrashReplica kills the oldest replica of one tenant
	// (deterministic victim selection), optionally filtered by Role.
	FaultCrashReplica FaultKind = iota
	// FaultPodOutage kills every replica of every tenant mapped to the
	// listed chips at once — the correlated-failure case.
	FaultPodOutage
	// FaultLinkDegrade scales the whole interconnect's bandwidth by
	// Scale at AtFrac and, when UntilFrac > AtFrac, restores it there.
	// Several degrade events make a flapping link. In-flight transfers
	// stretch mid-copy (xfer.Link.SetBandwidthScale).
	FaultLinkDegrade
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrashReplica:
		return "crash"
	case FaultPodOutage:
		return "pod-outage"
	case FaultLinkDegrade:
		return "link-degrade"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultEvent is one scheduled fault.
type FaultEvent struct {
	Kind FaultKind
	// AtFrac places the event on the sim clock as a fraction of the
	// run's duration, in [0, 1].
	AtFrac float64

	// Tenant names the victim tenant (FaultCrashReplica only).
	Tenant string
	// Role filters crash victims in a disaggregated fleet; RoleMixed
	// (the zero value) matches any role.
	Role Role

	// Chips lists the pNPUs a pod outage takes down (FaultPodOutage).
	Chips []int

	// Scale is the bandwidth multiplier a link degradation applies
	// (0 < Scale; 1 restores). UntilFrac, when > AtFrac, bounds the
	// degradation window.
	Scale     float64
	UntilFrac float64
}

// FaultPlan is a run's full fault schedule.
type FaultPlan struct {
	Events []FaultEvent
}

func (p *FaultPlan) validate(c *Config) error {
	for i := range p.Events {
		e := &p.Events[i]
		if err := checkFinite(fmt.Sprintf("fault %d", i), "AtFrac Scale UntilFrac", e.AtFrac, e.Scale, e.UntilFrac); err != nil {
			return err
		}
		if e.AtFrac < 0 || e.AtFrac > 1 {
			return fmt.Errorf("serve: fault %d at fraction %v outside [0,1]", i, e.AtFrac)
		}
		switch e.Kind {
		case FaultCrashReplica:
			found := false
			for j := range c.Tenants {
				if c.Tenants[j].Name == e.Tenant {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("serve: fault %d crashes unknown tenant %q", i, e.Tenant)
			}
			if e.Role < RoleMixed || e.Role > RoleDecode {
				return fmt.Errorf("serve: fault %d role %d unknown", i, e.Role)
			}
		case FaultPodOutage:
			if len(e.Chips) == 0 {
				return fmt.Errorf("serve: fault %d is a pod outage with no chips", i)
			}
			for _, c2 := range e.Chips {
				if c2 < 0 || c2 >= c.Cores {
					return fmt.Errorf("serve: fault %d outage chip %d outside the %d-pNPU fleet", i, c2, c.Cores)
				}
			}
		case FaultLinkDegrade:
			if !(e.Scale > 0) {
				return fmt.Errorf("serve: fault %d link scale %v", i, e.Scale)
			}
			if e.UntilFrac != 0 && (e.UntilFrac < e.AtFrac || e.UntilFrac > 1) {
				return fmt.Errorf("serve: fault %d degrade window [%v, %v) malformed", i, e.AtFrac, e.UntilFrac)
			}
		default:
			return fmt.Errorf("serve: fault %d kind %d unknown", i, e.Kind)
		}
	}
	return nil
}

// RecoveryConfig enables the recovery machinery a FaultPlan exercises.
// The zero value of each knob is "off", so a faulted run with a nil
// RecoveryConfig is the no-recovery baseline: survivors absorb what the
// router can re-queue and the (optional) autoscaler reacts only at its
// windowed pace.
type RecoveryConfig struct {
	// WarmSpares spawns this many extra replicas per pool (per role for
	// disaggregated tenants) ahead of demand at fleet build, and raises
	// the autoscaler's floor by the same amount so the spares are
	// maintained — capacity standing by before the first fault.
	WarmSpares int
	// EmergencySpawn respawns crashed capacity at the crash instant —
	// one replacement per victim, same role and EU budget — bypassing
	// the autoscaler's p99 observation window entirely.
	EmergencySpawn bool
	// Evacuate rebalances a disaggregated decode pool after a crash by
	// migrating mid-generation KV from overloaded decode slots to
	// underloaded ones (typically the emergency spawns), reusing the
	// prefill→decode migration path and its conservation accounting.
	Evacuate bool
}

func (rc *RecoveryConfig) validate() error {
	if rc.WarmSpares < 0 {
		return fmt.Errorf("serve: %d warm spares", rc.WarmSpares)
	}
	return nil
}

// warmSpares is the per-pool spare-capacity floor increment.
func (f *fleet) warmSpares() int {
	if f.cfg.Recover == nil {
		return 0
	}
	return f.cfg.Recover.WarmSpares
}

// scheduleFaults places every FaultPlan event on the engine's clock.
func (f *fleet) scheduleFaults() {
	p := f.cfg.Faults
	if p == nil {
		return
	}
	for i := range p.Events {
		e := p.Events[i]
		switch e.Kind {
		case FaultLinkDegrade:
			f.eng.At(sim.Time(e.AtFrac*f.durCycles), func(now sim.Time) {
				f.obs.linkScale(e.Scale, now)
				f.setLinkScale(e.Scale)
			})
			if e.UntilFrac > e.AtFrac {
				f.eng.At(sim.Time(e.UntilFrac*f.durCycles), func(now sim.Time) {
					f.obs.linkScale(1, now)
					f.setLinkScale(1)
				})
			}
		default:
			f.eng.At(sim.Time(e.AtFrac*f.durCycles), func(now sim.Time) { f.injectFault(e, now) })
		}
	}
}

// setLinkScale applies a fabric-wide bandwidth scale (no-op for fleets
// without an interconnect — only disaggregated tenants ship bytes).
func (f *fleet) setLinkScale(scale float64) {
	if f.fabric != nil {
		if err := f.fabric.SetBandwidthScale(scale); err != nil {
			panic(err) // validate() bounds Scale; unreachable
		}
	}
}

// harvested is one request recovered from a crashed replica, waiting to
// be re-queued to a survivor.
type harvested struct {
	ten *tenantState
	req request
}

// injectFault resolves one crash-class event's victims and executes it.
func (f *fleet) injectFault(e FaultEvent, now sim.Time) {
	var victims []*replica
	switch e.Kind {
	case FaultCrashReplica:
		t := f.tenantByName(e.Tenant)
		// The oldest matching replica (t.replicas is spawn-ordered, so
		// uid ascends): deterministic victim selection.
		for _, r := range t.replicas {
			if e.Role == RoleMixed || r.role == e.Role {
				victims = append(victims, r)
				break
			}
		}
	case FaultPodOutage:
		for _, t := range f.tenants { // tenant-index, then spawn order
			for _, r := range t.replicas {
				for _, chip := range e.Chips {
					if r.vnpu.Mapping.PNPU == chip {
						victims = append(victims, r)
						break
					}
				}
			}
		}
	}
	if len(victims) > 0 {
		f.obs.fault(e.Kind, len(victims), now)
		f.crashReplicas(victims, now)
	}
}

func (f *fleet) tenantByName(name string) *tenantState {
	for _, t := range f.tenants {
		if t.cfg.Name == name {
			return t
		}
	}
	return nil
}
