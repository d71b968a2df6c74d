package main

import (
	"strings"
	"testing"
)

// TestScenariosGateOnFullConvergence pins the convergence gate: a sweep
// whose rows all fully converge within the recovery budget succeeds, and
// the same sweep with the budget forced too small fails naming the row.
func TestScenariosGateOnFullConvergence(t *testing.T) {
	if err := runScenarios(42, 0.2, "slow-node", "", "", []int{1}, 0); err != nil {
		t.Fatalf("default recovery budget: %v", err)
	}
	err := runScenarios(42, 0.2, "slow-node", "", "", []int{1}, 1)
	if err == nil || !strings.Contains(err.Error(), "slow-node W=1") {
		t.Fatalf("one-round recovery budget: err = %v, want the unconverged row named", err)
	}
}
