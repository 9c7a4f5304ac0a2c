package virt

import "testing"

// TestSwitchCyclesModel pins the temporal-share context-switch cost
// model: positive, engine-count-monotone, and exactly the documented
// per-engine decomposition.
func TestSwitchCyclesModel(t *testing.T) {
	if got, want := SwitchCycles(1, 1), float64(SwitchBaseCycles+SwitchPerMECycles+SwitchPerVECycles); got != want {
		t.Errorf("SwitchCycles(1,1) = %v, want %v", got, want)
	}
	if got, want := SwitchCycles(2, 2), float64(SwitchBaseCycles+2*SwitchPerMECycles+2*SwitchPerVECycles); got != want {
		t.Errorf("SwitchCycles(2,2) = %v, want %v", got, want)
	}
	if SwitchCycles(4, 2) <= SwitchCycles(2, 2) {
		t.Error("switch cost not monotone in ME count")
	}
	if got, want := SwitchCycles(-3, -1), float64(SwitchBaseCycles); got != want {
		t.Errorf("negative engine counts not clamped: %v, want %v", got, want)
	}
}
