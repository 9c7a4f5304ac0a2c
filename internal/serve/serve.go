// Package serve is the online serving subsystem: a deterministic,
// event-driven simulator that pushes continuous per-request inference
// traffic through a fleet of pNPUs hosting tenant vNPUs under latency
// SLOs. It is the layer the paper defers to KubeVirt/Kubernetes — the
// piece that turns the repository's batch figure-reproducer into a
// continuously running serving system.
//
// The pipeline per tenant is:
//
//	arrivals ──► admission ──► router ──► replica queue ──► dynamic
//	batcher ──► batched invocation (costed through internal/compiler +
//	internal/sched, see CostDB) ──► completion + latency record
//
// with a periodic autoscaler observing windowed p99 latency against the
// tenant's SLO and growing/shrinking the tenant's vNPU fleet through the
// paper's §III-B allocator (EU-budget → ME:VE split) and §III-C mapper
// (segment-isolated placement under a cluster policy).
//
// Tenants can additionally pool their replicas into temporal-shared
// slots (TenantConfig.ShareGroup) scheduled by request priority with
// quantum-boundary preemption (Config.Preempt) — see slot.go and
// docs/SERVING.md.
//
// Everything runs on internal/sim's event kernel with seeded RNG
// streams, so a whole serving run — arrivals, routing coin flips,
// scaling actions, every percentile in the report — is reproducible
// bit-for-bit from Config.Seed.
package serve

// Run executes one serving scenario. The optional CostDB carries
// measured invocation costs across runs (scenario comparisons, repeated
// seeds); pass nil to build a private one. Costs are pure functions of
// (model, batch, shape), so sharing the database never changes results.
// A launch whose cost cannot be measured stops the run with an error.
func Run(cfg Config, db *CostDB) (*Report, error) {
	f, err := simulate(cfg, db)
	if err != nil {
		return nil, err
	}
	return f.report(), nil
}

// simulate builds the fleet for cfg and runs it to drain.
func simulate(cfg Config, db *CostDB) (*fleet, error) {
	f, err := newFleet(cfg, db)
	if err != nil {
		return nil, err
	}
	for _, t := range f.tenants {
		f.scheduleArrival(t)
	}
	f.scheduleFaults()
	if f.cfg.Autoscale {
		f.scheduleScale(f.cfg.ScaleEverySec * f.cfg.Core.FrequencyHz)
	}
	f.scheduleObs()
	f.eng.Run()
	for f.costErr == nil && f.dropStranded() {
		f.eng.Run()
	}
	if f.costErr != nil {
		return nil, f.costErr
	}
	return f, nil
}
