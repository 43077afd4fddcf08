package exhaustive

import (
	"errors"

	"eng/internal/guard"
)

// classify: positive — dispatches on guard sentinels but skips
// ErrBudget, so the catch-all would misclassify a budget stop.
func classify(err error) int {
	switch { // want "switch dispatches on guard sentinels but misses: guard.ErrBudget"
	case errors.Is(err, guard.ErrRowBudget):
		return 1
	case errors.Is(err, guard.ErrMemBudget):
		return 2
	case errors.Is(err, guard.ErrCostBudget):
		return 3
	case errors.Is(err, guard.ErrDeadline):
		return 4
	case errors.Is(err, guard.ErrCanceled):
		return 5
	default:
		return 0
	}
}

// status: positive — a default does not excuse the sentinels left
// out; every one of them is named in the finding.
func status(err error) int {
	switch { // want "switch dispatches on guard sentinels but misses: guard.ErrCostBudget, guard.ErrDeadline, guard.ErrMemBudget, guard.ErrRowBudget"
	case errors.Is(err, guard.ErrBudget):
		return 507
	case errors.Is(err, guard.ErrCanceled):
		return 499
	default:
		return 400
	}
}

// classifyAll: negative — every sentinel the taxonomy exports is
// named.
func classifyAll(err error) int {
	switch {
	case errors.Is(err, guard.ErrBudget):
		return 6
	case errors.Is(err, guard.ErrRowBudget):
		return 1
	case errors.Is(err, guard.ErrMemBudget):
		return 2
	case errors.Is(err, guard.ErrCostBudget):
		return 3
	case errors.Is(err, guard.ErrDeadline):
		return 4
	case errors.Is(err, guard.ErrCanceled):
		return 5
	default:
		return 0
	}
}

// returnsSentinel: negative — sentinels appearing only in case BODIES
// are results, not dispatch conditions.
func returnsSentinel(n int) error {
	switch {
	case n > 0:
		return guard.ErrRowBudget
	default:
		return nil
	}
}

// classifySuppressed documents its partial dispatch.
func classifySuppressed(err error) int {
	// vetcert:ignore sentinelswitch: corpus pin — only cancellation matters here
	switch {
	case errors.Is(err, guard.ErrCanceled):
		return 5
	default:
		return 0
	}
}

// isBudgetPartial: suppressed — the legacy astlint annotation also
// exempts a sentinel dispatch.
func isBudgetPartial(err error) bool {
	// astlint:partial — only the umbrella matters here.
	switch {
	case errors.Is(err, guard.ErrBudget):
		return true
	default:
		return false
	}
}

var (
	_ = isBudgetPartial
	_ = classify
	_ = status
	_ = classifyAll
	_ = returnsSentinel
	_ = classifySuppressed
)
