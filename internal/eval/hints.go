package eval

// PlanHints carry the cost-based planner's per-operator execution
// hints into the evaluator. Hints never change results — difftest's
// planner-ablation invariant holds the hinted and unhinted executions
// to byte-identical outputs — they only license cheaper strategies the
// planner has proved equivalent:
//
//   - SlimVerify drops the extracted hash-key equality conjuncts from
//     a semijoin's per-candidate verify condition. Sound because
//     candidates share a bucket exactly when their key encodings
//     (value.AppendKey) are equal, and the planner only sets the flag
//     on key columns where encoding equality implies the dropped
//     equalities are true under both semantics.
//   - NumKey records the planner's proof that a single join key is
//     numeric. The hash-index kernel (hashindex.go) takes its numeric
//     fast path whenever the build values allow it, hinted or not, so
//     the flag only informs EXPLAIN.
//   - BuildDistinct/BuildRows pre-size the hash index from the
//     statistics' cardinality estimates.
//   - FuseBuild licenses filtering a select-fed build side during the
//     hash build itself instead of materializing the filtered table
//     first. The planner only sets it when the selection's child is a
//     stored relation and its condition is scalar-free, so the fused
//     pass sees exactly the rows the standalone filter would emit and
//     nothing in the skipped subtree can mint marked nulls.
//
// Hints are keyed by the algebra node's canonical Key() string, so a
// cached plan's hints survive across executions and structurally
// identical nodes share one hint.
type PlanHints struct {
	// Semi maps SemiJoin node keys to their hints.
	Semi map[string]SemiHint

	// Shard maps UnifySemi node keys to their sharded-execution hints.
	// Consulted only when Options.Shards > 1.
	Shard map[string]ShardHint
}

// SemiHint is the hint for one (anti-)semijoin operator.
type SemiHint struct {
	// SlimVerify licenses dropping extracted equality conjuncts from
	// the verify condition (and, when nothing remains, skipping
	// per-candidate verification entirely: match = bucket non-empty).
	SlimVerify bool
	// NumKey records that the planner proved both key columns are
	// numeric-typed base columns. The kernel detects numeric keys at
	// run time, so the evaluator does not read it.
	NumKey bool
	// BuildRows is the estimated build-side row count.
	BuildRows int64
	// BuildDistinct is the estimated distinct key count on the build
	// side — the right pre-size for the hash index.
	BuildDistinct int64
	// FuseBuild licenses evaluating a Select build side's child
	// directly and applying the selection condition inside the index
	// build loop, skipping the intermediate materialization. The
	// runtime ignores the hint when the select subtree is a shared
	// view (its cached result must still be produced) and falls back
	// to an eager filter when no hash keys are extracted.
	FuseBuild bool
}

// semiHint returns the hint for a semijoin node, or the zero hint.
// The node key is only rendered when hints are installed at all, so
// unhinted executions pay nothing.
func (ev *Evaluator) semiHint(key func() string) SemiHint {
	if ev.opts.Hints == nil || ev.opts.Hints.Semi == nil {
		return SemiHint{}
	}
	return ev.opts.Hints.Semi[key()]
}

// ShardHint is the sharded-execution hint for one unification
// (anti-)semijoin operator; see plan.ShardPlan for how it is derived
// from the null-rate and distinct-count statistics.
type ShardHint struct {
	// CoPartition licenses wild-bucket co-partitioning of the build
	// side (shard.BuildUnify) instead of broadcasting it to every
	// shard. The scheme is unconditionally sound — null-containing
	// build rows go to a bucket every shard scans — so the planner's
	// statistics gate only whether the per-shard buckets are worth
	// building: it sets the flag when the build relation is null-free
	// and spreads across at least as many distinct rows as shards.
	CoPartition bool
}

// shardHint returns the hint for a unification-semijoin node, or the
// zero hint (broadcast).
func (ev *Evaluator) shardHint(key func() string) ShardHint {
	if ev.opts.Hints == nil || ev.opts.Hints.Shard == nil {
		return ShardHint{}
	}
	return ev.opts.Hints.Shard[key()]
}
