// Package eval executes relational-algebra expressions over incomplete
// databases.
//
// The evaluator supports the two evaluation modes studied in the paper:
// SQL's three-valued logic (EvalSQL in the paper's notation) and naive
// evaluation over marked nulls. It contains a deliberately simple,
// PostgreSQL-like planning layer whose behaviour mirrors the effects the
// paper reports from a production optimizer:
//
//   - SELECT-FROM-WHERE blocks (Select over Product chains) are planned
//     greedily with hash equi-joins;
//   - semijoins/antijoins (EXISTS / NOT EXISTS) use a hash strategy when
//     the condition contains pure column-to-column equality conjuncts,
//     and fall back to a nested loop otherwise — in particular when the
//     correctness translation turns A = B into (A = B OR B IS NULL),
//     destroying the extractable hash key exactly as described in
//     Section 7 of the paper;
//   - uncorrelated subqueries are evaluated once and short-circuit the
//     enclosing (anti-)semijoin, which is what makes the translated Q2
//     thousands of times faster than the original;
//   - structurally identical subplans are cached and reused, the
//     equivalent of the WITH views the paper introduces for Q4.
package eval

import (
	"errors"
	"fmt"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/table"
	"certsql/internal/value"
)

// ErrTooLarge matches any evaluation stopped by a resource budget —
// rows, cost units, or estimated memory. The legacy translation of
// [Libkin, TODS 2016] hits this on all but trivial instances (Section 5
// of the paper: "some of the queries start running out of memory
// already on instances with fewer than 10³ tuples"); this error is our
// analogue of running out of memory.
//
// It is an alias for guard.ErrBudget: every budget trip is a
// *guard.LimitError whose specific sentinel (guard.ErrRowBudget,
// ErrCostBudget, ErrMemBudget) also matches this grouping sentinel via
// errors.Is, so existing callers keep working unchanged.
//
// vetcert:ignore sentinelhygiene: grandfathered pure alias — it predates
// the guard taxonomy (PR 4) and the public API re-exports it; a pure
// alias is errors.Is-transparent, and no new aliases may be added.
var ErrTooLarge = guard.ErrBudget

// ErrPoisoned reports reuse of an evaluator after it recovered an
// internal error (a panic). A panic may leave caches or counters in an
// arbitrary state, so the evaluator refuses to run again rather than
// silently serving corrupt state.
var ErrPoisoned = errors.New("eval: evaluator poisoned by a previous internal error")

// Options configure an evaluation.
type Options struct {
	// Semantics selects null behaviour: value.SQL3VL (default) or
	// value.Naive (marked-null naive evaluation).
	Semantics value.Semantics

	// Governor supplies cancellation, deadlines, row/cost/memory
	// budgets, and (in tests) fault-injection hooks for the
	// evaluation. When nil, New uses a background Governor with the
	// default limits (guard.Background(guard.Limits{})).
	Governor *guard.Governor

	// Parallelism is the number of worker goroutines data-parallel
	// operators may use: 0 means GOMAXPROCS, 1 forces sequential
	// execution, N > 1 uses N workers. Results are deterministic at any
	// setting: workers scan contiguous partitions of the probe side and
	// their outputs are concatenated in partition order, so the result
	// table and the Stats counters are identical to a sequential run.
	Parallelism int

	// NoHashJoin disables hash strategies everywhere, forcing nested
	// loops. Used by ablation benchmarks.
	NoHashJoin bool

	// NoSubplanCache disables shared-subplan (WITH-view) caching.
	NoSubplanCache bool

	// NoShortCircuit disables the uncorrelated-subquery short circuit.
	NoShortCircuit bool

	// Materialize selects the legacy operator-at-a-time engine, in
	// which every operator materializes its full output and memory is
	// charged per operator. The default (false) is the streaming
	// batch-iterator engine: pipelines of scan/filter/project/limit/
	// distinct/union/semijoin-probe operators pull ~1k-row batches with
	// per-batch governance, and only hash builds, shared views, sorts,
	// aggregations and adom powers buffer. The two engines agree
	// byte-for-byte; difftest keeps them honest.
	Materialize bool

	// Shape is an optional precomputed streamability annotation for the
	// expression passed to Eval (see ShapeOf). Plans cache it so
	// prepared executions skip re-deriving pipeline boundaries. Nil
	// means derive on the fly; a stale or mismatched shape is ignored.
	Shape *Shape

	// Hints carries the cost-based planner's per-operator execution
	// hints (see PlanHints). Nil — the default, and the paper-faithful
	// naive-planner ablation — runs every operator with its unhinted
	// strategy. Hints never change results, only how they are computed.
	Hints *PlanHints

	// Trace enables plan tracing for Explain.
	Trace bool
}

// Stats accumulates execution counters across one evaluation.
type Stats struct {
	// CostUnits counts elementary row operations: rows scanned, hash
	// probes, and nested-loop condition evaluations. Nested loops
	// contribute |L|·|R|, hash joins |L|+|R|.
	CostUnits int64
	// NestedLoopJoins counts semi/anti/join operators executed with the
	// nested-loop strategy.
	NestedLoopJoins int
	// HashJoins counts operators executed with a hash strategy.
	HashJoins int
	// ShortCircuits counts uncorrelated subqueries answered once.
	ShortCircuits int
	// CacheHits counts subplan results served from the view cache.
	CacheHits int
	// FastPathHits counts SELECT CERTAIN evaluations that skipped the
	// Q⁺ translation because the static analyzer proved the plain query
	// already returns exactly the certain answers. Set by the facade,
	// not by the evaluator itself.
	FastPathHits int
	// PlanCacheHits counts prepared executions served from the plan
	// cache (parse, compile, analyze and translate all skipped);
	// PlanCacheMisses counts executions that compiled and cached a new
	// plan. Set by the facade's Prepare/Execute path, not by the
	// evaluator itself.
	PlanCacheHits   int
	PlanCacheMisses int
	// MemHighWaterBytes is the governor's peak estimated intermediate
	// memory over this evaluation (guard.Governor.MemHighWater),
	// captured when Eval returns. With a shared governor it reports the
	// peak across everything that governor has overseen so far.
	MemHighWaterBytes int64
}

// Evaluator executes expressions against one database.
type Evaluator struct {
	db   *table.Database
	opts Options
	gov  *guard.Governor

	stats  Stats
	cache  map[string]*table.Table
	scalar map[string]value.Value
	trace  []traceEntry
	depth  int

	// confErr records an Options misconfiguration detected by New
	// (Governor combined with the deprecated MaxRows/MaxCostUnits
	// fields); Eval reports it instead of running with limits the
	// caller believes are in force but are not.
	confErr error

	// ledger tracks live memory charges of the streaming engine:
	// estimated bytes charged per buffered table, released when the
	// enclosing operator finishes. View-cached tables are pinned —
	// removed from the ledger so their charge outlives the operator
	// (and, with a shared governor, the query) that built them.
	ledger map[*table.Table]int64
	// frames stacks the tables charged inside each open buffered
	// operator, so popFrame can drop everything a scope consumed.
	frames [][]*table.Table
	// shared holds view keys the plan uses more than once; buildIter
	// buffers those through the view cache (see markShared).
	shared map[string]bool

	// poisoned is set when a panic was recovered out of this
	// evaluator; see ErrPoisoned.
	poisoned bool

	// ticks counts coordinator-loop iterations for amortized
	// cancellation polling; see tick.
	ticks int

	// aggNulls counts the evaluator-local marks minted for empty
	// aggregate results; see freshAggNull.
	aggNulls int64
}

// freshAggNull mints a marked null for an empty SUM/AVG/MIN/MAX result.
// SQL's aggregate NULL is a Codd null — a fresh unknown per occurrence —
// so every result gets its own mark; sharing one mark would make two
// unrelated aggregate NULLs compare equal (and unify) under naive
// marked-null semantics. Marks are negative, which keeps them disjoint
// from the database's generator-minted marks (positive, see
// table.Database.FreshNull). Minting happens only on the coordinating
// goroutine (GroupBy and scalar-subquery evaluation are sequential), so
// the marks are deterministic at any Parallelism.
func (ev *Evaluator) freshAggNull() value.Value {
	ev.aggNulls++
	return value.Null(-ev.aggNulls)
}

// New returns an evaluator over db with the given options.
func New(db *table.Database, opts Options) *Evaluator {
	gov := opts.Governor
	if gov == nil {
		gov = guard.Background(guard.Limits{})
	}
	return &Evaluator{
		db:     db,
		opts:   opts,
		gov:    gov,
		cache:  map[string]*table.Table{},
		scalar: map[string]value.Value{},
		ledger: map[*table.Table]int64{},
		shared: map[string]bool{},
	}
}

// Stats returns the counters accumulated so far.
func (ev *Evaluator) Stats() Stats { return ev.stats }

// ResetStats clears the counters (the caches are kept).
func (ev *Evaluator) ResetStats() { ev.stats = Stats{}; ev.trace = nil }

// Governor returns the governor enforcing this evaluation's limits.
func (ev *Evaluator) Governor() *guard.Governor { return ev.gov }

// charge adds n elementary row operations to both the Stats counter
// and the governor's cumulative cost budget.
func (ev *Evaluator) charge(op string, n int64) error {
	ev.stats.CostUnits += n
	return ev.gov.ChargeCost(op, n)
}

// pollEvery is the amortization interval for cancellation polling in
// hot loops: one O(1) Poll per this many iterations.
const pollEvery = 64

// tick polls for cancellation amortized over coordinator-loop
// iterations; call it once per row in loops that may run long.
func (ev *Evaluator) tick(op string) error {
	ev.ticks++
	if ev.ticks%pollEvery != 0 {
		return nil
	}
	return ev.gov.Poll(op)
}

// Eval evaluates e and returns its result. Panics escaping the
// evaluation — engine bugs, or injected faults in tests — are
// recovered into a *guard.InternalError carrying the stack, and the
// evaluator is poisoned: subsequent Eval calls fail with ErrPoisoned
// instead of serving possibly corrupt cached state.
func (ev *Evaluator) Eval(e algebra.Expr) (t *table.Table, err error) {
	if ev.poisoned {
		return nil, ErrPoisoned
	}
	defer func() {
		if v := recover(); v != nil {
			t, err = nil, guard.NewInternalError("eval", v)
		}
		var ie *guard.InternalError
		if errors.As(err, &ie) {
			ev.poisoned = true
		}
		ev.stats.MemHighWaterBytes = ev.gov.MemHighWater()
	}()
	if ev.opts.Materialize {
		return ev.eval(e)
	}
	if !ev.opts.NoSubplanCache {
		ev.markShared(e)
	}
	return ev.drainExpr(e, ev.rootShape(e), true)
}

// evalChild evaluates a child expression with the engine selected by
// Options: the materializing engine recurses through eval, the
// streaming engine drains a fresh iterator pipeline (buffered
// boundary). Operator bodies shared by both engines call this, which
// keeps their child-evaluation order — and therefore the minting order
// of freshAggNull marks — identical, so the engines agree byte for
// byte.
func (ev *Evaluator) evalChild(e algebra.Expr) (*table.Table, error) {
	if ev.opts.Materialize {
		return ev.eval(e)
	}
	return ev.drainExpr(e, nil, false)
}

func (ev *Evaluator) eval(e algebra.Expr) (*table.Table, error) {
	key := ""
	if !ev.opts.NoSubplanCache {
		key = viewKey(e) // "" for subplans too large to profitably cache
		if t, ok := ev.cache[key]; key != "" && ok {
			ev.stats.CacheHits++
			ev.note("cached %T -> %d rows", e, t.Len())
			return t, nil
		}
	}
	t, err := ev.evalUncached(e)
	if err != nil {
		return nil, err
	}
	// Memory accounting happens at operator boundaries, when a result
	// materializes; cache hits above are free (already charged).
	if err := ev.gov.ChargeMem(opName(e), t.EstimatedBytes()); err != nil {
		return nil, err
	}
	if key != "" {
		if err := ev.gov.Fault(guard.SiteViewMaterialize); err != nil {
			return nil, err
		}
		ev.cache[key] = t
	}
	return t, nil
}

// opName names an algebra node for error reports and operator paths.
func opName(e algebra.Expr) string {
	switch e.(type) {
	case algebra.Base:
		return "scan"
	case algebra.AdomPower:
		return "adom-power"
	case algebra.Select:
		return "select"
	case algebra.Project:
		return "project"
	case algebra.Product:
		return "product"
	case algebra.Union:
		return "union"
	case algebra.Intersect:
		return "intersect"
	case algebra.Diff:
		return "diff"
	case algebra.SemiJoin:
		return "semijoin"
	case algebra.UnifySemi:
		return "unify-semijoin"
	case algebra.Distinct:
		return "distinct"
	case algebra.Division:
		return "division"
	case algebra.GroupBy:
		return "group-by"
	case algebra.Sort:
		return "sort"
	case algebra.Limit:
		return "limit"
	default:
		return fmt.Sprintf("%T", e)
	}
}

func (ev *Evaluator) evalUncached(e algebra.Expr) (*table.Table, error) {
	ev.depth++
	defer func() { ev.depth-- }()
	// Cancellation and deadlines are observed at every operator
	// boundary (and, amortized, inside the hot loops below).
	if err := ev.gov.Poll(opName(e)); err != nil {
		return nil, err
	}
	switch e := e.(type) {
	case algebra.Base:
		t, err := ev.db.Table(e.Name)
		if err != nil {
			return nil, err
		}
		if err := ev.gov.Fault(guard.SiteScan); err != nil {
			return nil, err
		}
		if err := ev.charge("scan", int64(t.Len())); err != nil {
			return nil, err
		}
		ev.note("scan %s -> %d rows", e.Name, t.Len())
		return t, nil

	case algebra.AdomPower:
		return ev.evalAdomPower(e)

	case algebra.Select:
		return ev.evalSelect(e)

	case algebra.Project:
		child, err := ev.evalChild(e.Child)
		if err != nil {
			return nil, err
		}
		out := table.New(len(e.Cols))
		out.Grow(child.Len())
		for _, r := range child.Rows() {
			nr := make(table.Row, len(e.Cols))
			for i, c := range e.Cols {
				nr[i] = r[c]
			}
			out.Append(nr)
		}
		if err := ev.charge("project", int64(child.Len())); err != nil {
			return nil, err
		}
		ev.note("project -> %d rows", out.Len())
		return out, nil

	case algebra.Product:
		l, err := ev.evalChild(e.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalChild(e.R)
		if err != nil {
			return nil, err
		}
		return ev.product(l, r)

	case algebra.Union:
		l, err := ev.evalChild(e.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalChild(e.R)
		if err != nil {
			return nil, err
		}
		out := table.New(l.Arity())
		out.Grow(l.Len() + r.Len())
		for _, row := range l.Rows() {
			out.Append(row)
		}
		for _, row := range r.Rows() {
			out.Append(row)
		}
		res := out.Distinct()
		if err := ev.charge("union", int64(l.Len()+r.Len())); err != nil {
			return nil, err
		}
		ev.note("union -> %d rows", res.Len())
		return res, nil

	case algebra.Intersect:
		l, err := ev.evalChild(e.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalChild(e.R)
		if err != nil {
			return nil, err
		}
		rk := r.KeySet()
		out := table.New(l.Arity())
		seen := map[string]struct{}{}
		for _, row := range l.Rows() {
			k := value.RowKey(row)
			if _, in := rk[k]; !in {
				continue
			}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out.Append(row)
		}
		if err := ev.charge("intersect", int64(l.Len()+r.Len())); err != nil {
			return nil, err
		}
		ev.note("intersect -> %d rows", out.Len())
		return out, nil

	case algebra.Diff:
		l, err := ev.evalChild(e.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalChild(e.R)
		if err != nil {
			return nil, err
		}
		rk := r.KeySet()
		out := table.New(l.Arity())
		seen := map[string]struct{}{}
		for _, row := range l.Rows() {
			k := value.RowKey(row)
			if _, in := rk[k]; in {
				continue
			}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out.Append(row)
		}
		if err := ev.charge("diff", int64(l.Len()+r.Len())); err != nil {
			return nil, err
		}
		ev.note("diff -> %d rows", out.Len())
		return out, nil

	case algebra.SemiJoin:
		return ev.evalSemiJoin(e)

	case algebra.UnifySemi:
		return ev.evalUnifySemi(e)

	case algebra.Distinct:
		child, err := ev.evalChild(e.Child)
		if err != nil {
			return nil, err
		}
		out := child.Distinct()
		if err := ev.charge("distinct", int64(child.Len())); err != nil {
			return nil, err
		}
		ev.note("distinct -> %d rows", out.Len())
		return out, nil

	case algebra.Division:
		return ev.evalDivision(e)

	case algebra.GroupBy:
		return ev.evalGroupBy(e)

	case algebra.Sort:
		return ev.evalSort(e)

	case algebra.Limit:
		return ev.evalLimit(e)

	default:
		return nil, fmt.Errorf("eval: unknown expression %T", e)
	}
}

// product materializes l × r, guarding the row budget.
func (ev *Evaluator) product(l, r *table.Table) (*table.Table, error) {
	n := l.Len() * r.Len()
	if l.Len() != 0 && n/l.Len() != r.Len() {
		return nil, &guard.LimitError{Sentinel: guard.ErrRowBudget, Op: "product",
			Detail: fmt.Sprintf("product of %d × %d rows overflows", l.Len(), r.Len())}
	}
	if err := ev.gov.CheckRows("product", n); err != nil {
		return nil, err
	}
	out := table.New(l.Arity() + r.Arity())
	out.Grow(n)
	for _, lr := range l.Rows() {
		if err := ev.tick("product"); err != nil {
			return nil, err
		}
		for _, rr := range r.Rows() {
			nr := make(table.Row, 0, len(lr)+len(rr))
			nr = append(nr, lr...)
			nr = append(nr, rr...)
			out.Append(nr)
		}
	}
	if err := ev.charge("product", int64(n)); err != nil {
		return nil, err
	}
	ev.note("product -> %d rows", out.Len())
	return out, nil
}

// evalAdomPower materializes adomᵏ, the k-fold power of the active
// domain — the operation that dooms the legacy translation.
func (ev *Evaluator) evalAdomPower(e algebra.AdomPower) (*table.Table, error) {
	dom := ev.db.ActiveDomain()
	size := 1
	for i := 0; i < e.K; i++ {
		if len(dom) != 0 && size > ev.gov.MaxRows()/len(dom) {
			return nil, &guard.LimitError{Sentinel: guard.ErrRowBudget, Op: "adom-power",
				Detail: fmt.Sprintf("adom^%d with |adom| = %d over budget of %d rows", e.K, len(dom), ev.gov.MaxRows())}
		}
		size *= len(dom)
	}
	out := table.New(e.K)
	out.Grow(size)
	row := make(table.Row, e.K)
	var genErr error
	var gen func(pos int)
	gen = func(pos int) {
		if genErr != nil {
			return
		}
		if pos == e.K {
			if genErr = ev.tick("adom-power"); genErr != nil {
				return
			}
			nr := make(table.Row, e.K)
			copy(nr, row)
			out.Append(nr)
			return
		}
		for _, v := range dom {
			row[pos] = v
			gen(pos + 1)
		}
	}
	gen(0)
	if genErr != nil {
		return nil, genErr
	}
	if err := ev.charge("adom-power", int64(size)); err != nil {
		return nil, err
	}
	ev.note("adom^%d -> %d rows", e.K, out.Len())
	return out, nil
}

// evalDivision executes L ÷ R by grouping L on its prefix columns and
// checking that each group's suffixes cover all of R. Membership is by
// exact row identity (mark-aware), matching the set-based definition.
func (ev *Evaluator) evalDivision(e algebra.Division) (*table.Table, error) {
	l, err := ev.evalChild(e.L)
	if err != nil {
		return nil, err
	}
	r, err := ev.evalChild(e.R)
	if err != nil {
		return nil, err
	}
	nPre := e.L.Arity() - e.R.Arity()
	if nPre < 0 {
		return nil, fmt.Errorf("eval: division of arity %d by arity %d", e.L.Arity(), e.R.Arity())
	}
	need := r.Distinct()
	// Charge the projected quadratic cost up front so the loop below
	// degrades with ErrCostBudget instead of hanging; the per-row
	// Stats increments below are reporting, not governance.
	cost := int64(l.Len()) + int64(l.Len())*int64(need.Len())
	if err := ev.gov.ChargeCost("division", cost); err != nil {
		return nil, err
	}
	groups := map[string]map[string]struct{}{}
	preCols := make([]int, nPre)
	sufCols := make([]int, e.R.Arity())
	for i := range preCols {
		preCols[i] = i
	}
	for i := range sufCols {
		sufCols[i] = nPre + i
	}
	for _, row := range l.Rows() {
		ev.stats.CostUnits++
		if err := ev.tick("division"); err != nil {
			return nil, err
		}
		pk := value.TupleKey(row, preCols)
		if _, ok := groups[pk]; !ok {
			groups[pk] = map[string]struct{}{}
		}
		groups[pk][value.TupleKey(row, sufCols)] = struct{}{}
	}
	needKeys := make([]string, 0, need.Len())
	allCols := rangeInts(e.R.Arity())
	for _, want := range need.Rows() {
		needKeys = append(needKeys, value.TupleKey(want, allCols))
	}
	out := table.New(nPre)
	emitted := map[string]struct{}{}
	for _, row := range l.Rows() { // first-seen order keeps output deterministic
		if err := ev.tick("division"); err != nil {
			return nil, err
		}
		pk := value.TupleKey(row, preCols)
		if _, done := emitted[pk]; done {
			continue
		}
		emitted[pk] = struct{}{}
		have := groups[pk]
		covers := true
		for _, wk := range needKeys {
			ev.stats.CostUnits++
			if _, ok := have[wk]; !ok {
				covers = false
				break
			}
		}
		if covers {
			out.Append(append(table.Row{}, row[:nPre]...))
		}
	}
	ev.note("division %d ÷ %d -> %d rows", l.Len(), r.Len(), out.Len())
	return out, nil
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// evalUnifySemi executes a unification (anti-)semijoin by nested loop
// with early exit; tuple unification handles repeated marked nulls.
func (ev *Evaluator) evalUnifySemi(e algebra.UnifySemi) (*table.Table, error) {
	l, err := ev.evalChild(e.L)
	if err != nil {
		return nil, err
	}
	r, err := ev.evalChild(e.R)
	if err != nil {
		return nil, err
	}
	if l.Arity() != r.Arity() {
		return nil, fmt.Errorf("eval: unification semijoin of arities %d and %d", l.Arity(), r.Arity())
	}
	// Charge the projected quadratic cost up front; see evalDivision.
	if err := ev.gov.ChargeCost("unify-semijoin", int64(l.Len())*int64(r.Len())); err != nil {
		return nil, err
	}
	lRows, rRows := l.Rows(), r.Rows()
	chunks := make([][]table.Row, ev.opts.workers())
	err = ev.runChunksPrecharged(l.Len(), "unify-semijoin", func(c *chunk) error {
		var out []table.Row
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			lr := lRows[i]
			match := false
			for _, rr := range rRows {
				c.st.costUnits++
				if value.UnifyTuples(lr, rr) {
					match = true
					break
				}
			}
			if match != e.Anti {
				out = append(out, lr)
			}
		}
		chunks[c.part] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	out, err := concatChunks(ev.gov, l.Arity(), chunks)
	if err != nil {
		return nil, err
	}
	name := "unify-semijoin"
	if e.Anti {
		name = "unify-antijoin"
	}
	ev.note("%s %d ⇑ %d -> %d rows", name, l.Len(), r.Len(), out.Len())
	return out, nil
}
