package core

// NextAdaptiveStep is the decide-step of the adaptive cleaning loop
// (session.Stepper): among uncleaned objects whose cost fits the
// remaining budget and whose one-step benefit is positive, pick the one
// maximizing benefit-per-cost — strictly greater wins, so the lowest
// object ID breaks ties. It returns the chosen object with its benefit
// and ratio, or best = -1 when no affordable step improves. The benefit
// function is consulted exactly once per candidate, in ascending ID
// order.
func NextAdaptiveStep(costs []float64, cleaned []bool, remaining float64,
	benefit func(o int) float64) (best int, bestB, bestR float64) {
	best, bestB, bestR = -1, 0, 0
	for o := range costs {
		if cleaned[o] || !fitsBudget(0, costs[o], remaining) {
			continue
		}
		b := benefit(o)
		if b <= 0 {
			continue
		}
		if r := ratio(b, costs[o]); r > bestR {
			best, bestB, bestR = o, b, r
		}
	}
	return best, bestB, bestR
}

// FitsBudget reports whether adding cost c to spent stays within budget
// under the round-off tolerance all selectors share. Exported for the
// session layer, which accepts a reveal exactly when NextAdaptiveStep
// would deem the object affordable.
func FitsBudget(spent, c, budget float64) bool { return fitsBudget(spent, c, budget) }

// Ratio is benefit-per-cost under the zero-cost convention every
// selector ranks by. Exported for the root package's RankObjects, which
// orders objects the way a selector would.
func Ratio(benefit, cost float64) float64 { return ratio(benefit, cost) }

// ValidateBudget rejects NaN or negative budgets with the same rule the
// selectors apply.
func ValidateBudget(budget float64) error { return validateBudget(budget) }
