package virt

// Temporal-share context switching. When two tenants' batches
// interleave on one vNPU slot (internal/serve's preemptive temporal
// sharing), every preemption checkpoints the victim's architectural
// state and every resume restores it. The cost model follows the
// paper's reclaim accounting (§III-G): each ME pays the pop-partials +
// pop-weights drain the 256-cycle reclaim penalty prices, each VE pays
// a register-file save, and the slot pays a fixed command-queue
// drain/descriptor-swap cost once per switch. The serving layer charges
// each switch's SwitchCycles to the batch's tenant, and its report sums
// those charges into how many cycles temporal sharing stole from useful
// service.

const (
	// SwitchBaseCycles is the per-switch fixed cost: draining the slot's
	// command queue and swapping the device context descriptor.
	SwitchBaseCycles = 128
	// SwitchPerMECycles is the per-ME checkpoint cost — pop partial sums
	// and pop weights, the same drain the §III-G reclaim penalty models.
	SwitchPerMECycles = 256
	// SwitchPerVECycles is the per-VE register-file save/restore cost.
	SwitchPerVECycles = 64
)

// SwitchCycles returns the context-switch cost, in cycles, of
// checkpointing (or restoring) a batch on a vNPU slot with nm MEs and
// nv VEs. Save and restore are symmetric, so one preempt/resume pair
// costs 2×SwitchCycles.
func SwitchCycles(nm, nv int) float64 {
	if nm < 0 {
		nm = 0
	}
	if nv < 0 {
		nv = 0
	}
	return float64(SwitchBaseCycles + SwitchPerMECycles*nm + SwitchPerVECycles*nv)
}
