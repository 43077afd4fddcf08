// Package plan is the cost-based planner. It sits between translation
// (internal/certain producing Q⁺/Q⋆ algebra) and evaluation
// (internal/eval), rewriting plans and attaching execution hints using
// per-table statistics (internal/stats) and nullability inference
// (internal/analyze).
//
// The planner's contract is strict: an optimized plan must produce a
// byte-identical result table to the paper-faithful naive plan, under
// both semantics, at any parallelism. difftest's planner-ablation
// invariant enforces this over seeded generated databases. The
// contract shapes every rule:
//
//   - Rules never reorder the rows any operator emits. Join-order
//     selection therefore stays in the runtime's greedy equi-join
//     planner (which sees exact cardinalities); the planner costs it
//     for EXPLAIN but does not override it.
//   - Rules never fire on conditions containing scalar subqueries, and
//     rules that can change which subtrees are evaluated (or how
//     often) never fire when the subtrees mint fresh marked nulls
//     (GroupBy aggregates over empty groups), since mark identities
//     appear in the output bytes.
//   - Rules that rely on the current data — a nullable column that
//     happens to contain no nulls, a numeric column within exact
//     float64 range — record a Premise. Prepared plans re-check their
//     premises against current statistics before each execution and
//     fall back to the naive plan when one no longer holds.
package plan

import (
	"sort"
	"strconv"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/schema"
	"certsql/internal/stats"
)

// RuleKind identifies one planner rule. vetcert's enumswitch rule
// checks that any switch over RuleKind names every Rule* constant.
type RuleKind uint8

// Planner rule kinds.
const (
	// RulePushdownSelect moves a selection below Project, Distinct,
	// Union, Diff, Intersect and (anti-)semijoin operators so filters
	// run on fewer or narrower rows.
	RulePushdownSelect RuleKind = iota
	// RuleMergeSelect fuses adjacent selections into one conjunction,
	// saving a filter pass.
	RuleMergeSelect
	// RuleNullTestElim removes IS NULL / IS NOT NULL tests on columns
	// proved null-free — statically by analyze.NonNullCols, or from
	// statistics under a recorded premise. This is the 2VL
	// simplification that turns the paper's Section 7 hash-hostile
	// `A = B OR B IS NULL` conditions back into plain equalities.
	RuleNullTestElim
	// RuleAntiSplit partitions an antijoin's right side on its
	// IS NULL disjuncts: L ▷[(θ∨ρ)∧rest] R becomes two antijoins over
	// σρ(R) and σ¬ρ(R) whose conditions are free of the disjunction,
	// re-enabling hash keys and short circuits.
	RuleAntiSplit
	// RuleProjectCollapse composes adjacent projections.
	RuleProjectCollapse
	// RuleSlimVerify drops extracted hash-key equalities from a
	// semijoin's per-candidate verify condition (bucket co-membership
	// already proves them).
	RuleSlimVerify
	// RuleHashPresize pre-sizes semijoin hash indexes from the
	// statistics' distinct-value estimates.
	RuleHashPresize
	// RuleFuseBuild filters a semijoin's select-fed build side during
	// the hash build itself, skipping the filtered intermediate.
	RuleFuseBuild
)

// RuleKinds lists every rule kind, in declaration order.
var RuleKinds = []RuleKind{
	RulePushdownSelect, RuleMergeSelect, RuleNullTestElim, RuleAntiSplit,
	RuleProjectCollapse, RuleSlimVerify, RuleHashPresize,
	RuleFuseBuild,
}

// String returns the rule's stable lower-case name, used in EXPLAIN
// output and golden files.
func (k RuleKind) String() string {
	switch k {
	case RulePushdownSelect:
		return "pushdown-select"
	case RuleMergeSelect:
		return "merge-select"
	case RuleNullTestElim:
		return "null-test-elim"
	case RuleAntiSplit:
		return "anti-split"
	case RuleProjectCollapse:
		return "project-collapse"
	case RuleSlimVerify:
		return "slim-verify"
	case RuleHashPresize:
		return "hash-presize"
	case RuleFuseBuild:
		return "fuse-build"
	default:
		return "unknown-rule"
	}
}

// Rule is the planner-rule family: one implementation per RuleKind,
// carrying the rule's self-description for EXPLAIN and documentation.
// The marker method keeps the family closed so vetcert's famexhaustive
// rule can check switches over it for exhaustiveness.
type Rule interface {
	isRule()
	Kind() RuleKind
	// Describe states what the rule does and why it preserves
	// byte-identical results.
	Describe() string
}

// PushdownSelect implements RulePushdownSelect.
type PushdownSelect struct{}

// MergeSelect implements RuleMergeSelect.
type MergeSelect struct{}

// NullTestElim implements RuleNullTestElim.
type NullTestElim struct{}

// AntiSplit implements RuleAntiSplit.
type AntiSplit struct{}

// ProjectCollapse implements RuleProjectCollapse.
type ProjectCollapse struct{}

// SlimVerify implements RuleSlimVerify.
type SlimVerify struct{}

// HashPresize implements RuleHashPresize.
type HashPresize struct{}

// FuseBuild implements RuleFuseBuild.
type FuseBuild struct{}

func (PushdownSelect) isRule()  {}
func (MergeSelect) isRule()     {}
func (NullTestElim) isRule()    {}
func (AntiSplit) isRule()       {}
func (ProjectCollapse) isRule() {}
func (SlimVerify) isRule()      {}
func (HashPresize) isRule()     {}
func (FuseBuild) isRule()       {}

// Kind returns RulePushdownSelect.
func (PushdownSelect) Kind() RuleKind { return RulePushdownSelect }

// Kind returns RuleMergeSelect.
func (MergeSelect) Kind() RuleKind { return RuleMergeSelect }

// Kind returns RuleNullTestElim.
func (NullTestElim) Kind() RuleKind { return RuleNullTestElim }

// Kind returns RuleAntiSplit.
func (AntiSplit) Kind() RuleKind { return RuleAntiSplit }

// Kind returns RuleProjectCollapse.
func (ProjectCollapse) Kind() RuleKind { return RuleProjectCollapse }

// Kind returns RuleSlimVerify.
func (SlimVerify) Kind() RuleKind { return RuleSlimVerify }

// Kind returns RuleHashPresize.
func (HashPresize) Kind() RuleKind { return RuleHashPresize }

// Kind returns RuleFuseBuild.
func (FuseBuild) Kind() RuleKind { return RuleFuseBuild }

// Describe implements Rule.
func (PushdownSelect) Describe() string {
	return "push filters below projections, set operations and semijoins; filters commute with per-row operators without reordering rows"
}

// Describe implements Rule.
func (MergeSelect) Describe() string {
	return "fuse stacked filters into one conjunctive pass over the same rows"
}

// Describe implements Rule.
func (NullTestElim) Describe() string {
	return "drop null tests on provably null-free columns; truth of every condition is unchanged on the actual data"
}

// Describe implements Rule.
func (AntiSplit) Describe() string {
	return "partition an antijoin's build side on its IS NULL disjuncts; the disjunct is constant on each part, so the union of the two antijoins filters exactly the same left rows"
}

// Describe implements Rule.
func (ProjectCollapse) Describe() string {
	return "compose adjacent projections into one column remap"
}

// Describe implements Rule.
func (SlimVerify) Describe() string {
	return "verify only the residual condition per hash candidate; shared buckets already prove the extracted key equalities"
}

// Describe implements Rule.
func (HashPresize) Describe() string {
	return "pre-size semijoin hash indexes from distinct-value estimates"
}

// Describe implements Rule.
func (FuseBuild) Describe() string {
	return "filter a select-fed build side inside the hash build loop; the index holds exactly the rows the standalone filter would keep"
}

// Rules holds one instance of every planner rule, in RuleKinds order.
var Rules = []Rule{
	PushdownSelect{}, MergeSelect{}, NullTestElim{}, AntiSplit{},
	ProjectCollapse{}, SlimVerify{}, HashPresize{}, FuseBuild{},
}

// PremiseKind classifies what a premise asserts about current data.
type PremiseKind uint8

// Premise kinds.
const (
	// PremiseNullFree asserts a base-table column currently contains
	// no nulls (marked or otherwise).
	PremiseNullFree PremiseKind = iota
	// PremiseNumRange asserts a base-table column's values all lie
	// within ±2⁵³, where the float64 key encoding is exact — the
	// condition under which hash-bucket equality implies `=`.
	PremiseNumRange
)

// numRangeLimit is 2⁵³, the largest magnitude below which every
// integer is exactly representable as a float64.
const numRangeLimit = float64(1 << 53)

// Premise is one data-dependent fact an optimized plan relies on.
// Premises are recorded only when they hold at plan time; prepared
// plans re-check them against current statistics before reuse.
type Premise struct {
	Kind  PremiseKind
	Table string
	Col   int
}

// Holds reports whether the premise is true under st.
func (p Premise) Holds(st *stats.DBStats) bool {
	ts := st.Table(p.Table)
	if ts == nil || p.Col < 0 || p.Col >= len(ts.Cols) {
		return false
	}
	switch p.Kind {
	case PremiseNullFree:
		return ts.NullFree(p.Col)
	case PremiseNumRange:
		return numRangeOK(ts.Cols[p.Col])
	default:
		return false
	}
}

// String renders the premise for EXPLAIN output.
func (p Premise) String() string {
	var kind string
	switch p.Kind {
	case PremiseNullFree:
		kind = "null-free"
	case PremiseNumRange:
		kind = "num-range"
	default:
		// An unknown kind must not masquerade as an existing one in
		// EXPLAIN output (the golden tests diff it verbatim).
		kind = "unknown-premise-" + strconv.Itoa(int(p.Kind))
	}
	return kind + "(" + p.Table + "." + strconv.Itoa(p.Col) + ")"
}

// CheckPremises reports whether every premise holds under st.
func CheckPremises(ps []Premise, st *stats.DBStats) bool {
	if len(ps) == 0 {
		return true
	}
	if st == nil {
		return false
	}
	for _, p := range ps {
		if !p.Holds(st) {
			return false
		}
	}
	return true
}

// Result is an optimized plan: the rewritten expression, the execution
// hints for its operators, the premises its rewrites rely on, the
// rules that fired, and the costed EXPLAIN tree.
type Result struct {
	// Expr is the rewritten expression. When Changed is false it is
	// the input expression unchanged.
	Expr algebra.Expr
	// Hints are the per-operator execution hints (nil when none).
	Hints *eval.PlanHints
	// Premises are the data-dependent facts the plan relies on.
	Premises []Premise
	// Fired lists the distinct rule kinds that fired, in declaration
	// order.
	Fired []RuleKind
	// Explain is the costed plan tree for the rewritten expression.
	Explain *ExplainNode
	// Changed reports whether any rewrite or hint was produced.
	Changed bool
}

// Optimize rewrites e under the byte-identity contract and attaches
// execution hints, using sch for types, st for cardinalities and null
// rates (nil disables every statistics-dependent rule), and gov for
// fault injection at guard.SitePlanRewrite (nil allowed).
func Optimize(e algebra.Expr, sch *schema.Schema, st *stats.DBStats, gov *guard.Governor) (*Result, error) {
	if err := gov.Fault(guard.SitePlanRewrite); err != nil {
		return nil, err
	}
	o := &optimizer{sch: sch, st: st, fired: map[RuleKind]bool{}, premises: map[Premise]struct{}{}}
	out := o.rewrite(e)
	hints := o.hints(out)
	res := &Result{Expr: out, Hints: hints}
	for _, k := range RuleKinds {
		if o.fired[k] {
			res.Fired = append(res.Fired, k)
		}
	}
	for p := range o.premises {
		res.Premises = append(res.Premises, p)
	}
	sort.Slice(res.Premises, func(i, j int) bool {
		a, b := res.Premises[i], res.Premises[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Kind < b.Kind
	})
	res.Changed = len(res.Fired) > 0
	res.Explain = o.describe(out, hints)
	return res, nil
}

// Describe costs e without rewriting it — the EXPLAIN tree for the
// naive planner's plan.
func Describe(e algebra.Expr, sch *schema.Schema, st *stats.DBStats) *ExplainNode {
	o := &optimizer{sch: sch, st: st, fired: map[RuleKind]bool{}, premises: map[Premise]struct{}{}}
	return o.describe(e, nil)
}
