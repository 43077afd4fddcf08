package exhaustive

import "eng/internal/plan"

// phase is a local constant enum: ordinary (non-strict) exhaustiveness
// applies — a loud default satisfies the rule.
type phase uint8

const (
	phaseScan phase = iota
	phaseMerge
	phaseEmit
)

// ruleLabel: positive — RuleKind is a strict enum, so even with a
// default every constant must be named.
func ruleLabel(k plan.RuleKind) string {
	switch k { // want "switch over plan.RuleKind misses: plan.RuleC"
	case plan.RuleA:
		return "a"
	case plan.RuleB:
		return "b"
	default:
		return "?"
	}
}

// ruleLabelOne: positive — every missing kind is named, not just the
// first.
func ruleLabelOne(k plan.RuleKind) string {
	switch k { // want "switch over plan.RuleKind misses: plan.RuleB, plan.RuleC"
	case plan.RuleA:
		return "a"
	default:
		return "?"
	}
}

// ruleLabelAll: negative — every RuleKind constant named; the default
// is then a legitimate future-proofing fallback.
func ruleLabelAll(k plan.RuleKind) string {
	switch k {
	case plan.RuleA:
		return "a"
	case plan.RuleB:
		return "b"
	case plan.RuleC:
		return "c"
	default:
		return "?"
	}
}

// phaseNoDefault: positive — missing constant and nowhere for it to
// go.
func phaseNoDefault(p phase) string {
	switch p { // want "switch over exhaustive.phase has no default and misses: exhaustive.phaseMerge"
	case phaseScan:
		return "scan"
	case phaseEmit:
		return "emit"
	}
	return ""
}

// phaseSilentDefault: positive — the empty default swallows unknown
// values.
func phaseSilentDefault(p phase) string {
	switch p { // want "switch over exhaustive.phase has a silent .empty. default"
	case phaseScan:
		return "scan"
	default:
	}
	return ""
}

// phaseLoudDefault: negative — partial coverage with an explicit
// rejection.
func phaseLoudDefault(p phase) string {
	switch p {
	case phaseScan:
		return "scan"
	default:
		panic("unknown phase")
	}
}

// isRuleA: suppressed — the legacy astlint annotation exempts a
// partial RuleKind dispatch.
func isRuleA(k plan.RuleKind) bool {
	// astlint:partial — only the one kind matters here.
	switch k {
	case plan.RuleA:
		return true
	default:
		return false
	}
}

// ruleOf: negative — RuleKind constants returned from case bodies are
// results, not dispatch conditions.
func ruleOf(kind int) plan.RuleKind {
	switch kind {
	case 1:
		return plan.RuleB
	default:
		return plan.RuleA
	}
}

var (
	_ = isRuleA
	_ = ruleOf
	_ = ruleLabel
	_ = ruleLabelOne
	_ = ruleLabelAll
	_ = phaseNoDefault
	_ = phaseSilentDefault
	_ = phaseLoudDefault
)
