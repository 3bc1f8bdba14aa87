package core

import "testing"

// --- NextAdaptiveStep: the decide-step of the adaptive session loop ---

func TestNextAdaptiveStepPicksBestRatio(t *testing.T) {
	costs := []float64{2, 1, 4}
	benefits := []float64{3, 2, 10} // ratios 1.5, 2, 2.5
	best, b, r := NextAdaptiveStep(costs, make([]bool, 3), 10, func(o int) float64 { return benefits[o] })
	if best != 2 || b != 10 || r != 2.5 {
		t.Fatalf("got (%d, %v, %v), want (2, 10, 2.5)", best, b, r)
	}
}

func TestNextAdaptiveStepSkipsCleanedAndUnaffordable(t *testing.T) {
	costs := []float64{1, 1, 5}
	benefits := []float64{100, 1, 100}
	cleaned := []bool{true, false, false}
	// Object 0 is cleaned, object 2 does not fit the remaining budget 2.
	best, _, _ := NextAdaptiveStep(costs, cleaned, 2, func(o int) float64 { return benefits[o] })
	if best != 1 {
		t.Fatalf("got %d, want 1", best)
	}
}

func TestNextAdaptiveStepSkipsNonPositiveBenefit(t *testing.T) {
	costs := []float64{1, 1, 1}
	benefits := []float64{0, -2, 0}
	best, _, _ := NextAdaptiveStep(costs, make([]bool, 3), 10, func(o int) float64 { return benefits[o] })
	if best != -1 {
		t.Fatalf("got %d, want -1 (no positive-benefit step)", best)
	}
}

func TestNextAdaptiveStepLowestIDWinsTies(t *testing.T) {
	// Equal ratios everywhere: the strictly-greater comparison keeps the
	// first candidate, so the selection is deterministic.
	costs := []float64{1, 1, 1}
	best, _, _ := NextAdaptiveStep(costs, make([]bool, 3), 10, func(o int) float64 { return 1 })
	if best != 0 {
		t.Fatalf("tie broke to %d, want 0", best)
	}
}

func TestNextAdaptiveStepBudgetTolerance(t *testing.T) {
	// FitsBudget's round-off tolerance must apply: a cost equal to the
	// remaining budget up to 1e-9 relative error is affordable.
	costs := []float64{3.0000000000000004}
	best, _, _ := NextAdaptiveStep(costs, make([]bool, 1), 3, func(o int) float64 { return 1 })
	if best != 0 {
		t.Fatal("tolerance-close cost rejected")
	}
	if !FitsBudget(0, 3.0000000000000004, 3) {
		t.Fatal("FitsBudget disagrees with the selectors' tolerance")
	}
	if FitsBudget(0, 4, 3) {
		t.Fatal("clearly unaffordable cost accepted")
	}
}

func TestValidateBudgetExported(t *testing.T) {
	if err := ValidateBudget(1); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBudget(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
}
