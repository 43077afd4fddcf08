package eval

import (
	"fmt"
	"sort"
	"sync/atomic"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/shard"
	"certsql/internal/table"
	"certsql/internal/value"
)

// evalSelect evaluates σ_cond(child). When the child is a chain of
// Cartesian products — the shape SELECT-FROM-WHERE blocks compile to —
// the condition's equality conjuncts are used to plan a greedy hash
// equi-join instead of materializing the product.
func (ev *Evaluator) evalSelect(e algebra.Select) (*table.Table, error) {
	leaves := flattenProduct(e.Child)
	if len(leaves) >= 2 && !ev.opts.NoHashJoin {
		return ev.planJoinBlock(leaves, e.Cond)
	}
	child, err := ev.evalChild(e.Child)
	if err != nil {
		return nil, err
	}
	out, err := ev.filterTable(child, e.Cond)
	if err != nil {
		return nil, err
	}
	ev.note("filter %s -> %d rows", e.Cond, out.Len())
	return out, nil
}

// flattenProduct returns the leaves of a left-to-right product chain, or
// a single-element slice when e is not a product.
func flattenProduct(e algebra.Expr) []algebra.Expr {
	if p, ok := e.(algebra.Product); ok {
		return append(flattenProduct(p.L), flattenProduct(p.R)...)
	}
	return []algebra.Expr{e}
}

// joinEdge is a pure column-to-column equality conjunct usable as a hash
// key, expressed in canonical (pre-join) column positions.
type joinEdge struct {
	leafA, leafB int
	colA, colB   int // canonical positions, colA in leafA and colB in leafB
}

// planJoinBlock plans and executes σ_cond(leaf₀ × leaf₁ × …) greedily:
// single-leaf conjuncts filter their leaf first; pure equality conjuncts
// across two leaves become hash-join edges; everything else (including
// OR-disjunctions — the shape that defeats real optimizers in Section 7
// of the paper) is a residual filter applied once its leaves are joined.
// The output preserves the canonical column order of the product.
func (ev *Evaluator) planJoinBlock(leaves []algebra.Expr, cond algebra.Cond) (*table.Table, error) {
	n := len(leaves)
	offsets := make([]int, n+1)
	for i, l := range leaves {
		offsets[i+1] = offsets[i] + l.Arity()
	}
	totalArity := offsets[n]
	leafOf := func(col int) int {
		return sort.Search(n, func(i int) bool { return offsets[i+1] > col })
	}

	// Classify conjuncts.
	var (
		singles   = make([][]algebra.Cond, n)
		edges     []joinEdge
		residuals []algebra.Cond
	)
	for _, c := range algebra.Conjuncts(algebra.NNF(cond)) {
		cols := algebra.ColsUsed(c)
		touched := map[int]struct{}{}
		for _, col := range cols {
			touched[leafOf(col)] = struct{}{}
		}
		switch {
		case len(touched) == 0:
			residuals = append(residuals, c) // constant or scalar-only condition
		case len(touched) == 1:
			var li int
			for l := range touched {
				li = l
			}
			singles[li] = append(singles[li], c)
		default:
			if cmp, ok := c.(algebra.Cmp); ok && cmp.Op == algebra.EQ {
				lc, lok := cmp.L.(algebra.Col)
				rc, rok := cmp.R.(algebra.Col)
				if lok && rok && len(touched) == 2 {
					la, lb := leafOf(lc.Idx), leafOf(rc.Idx)
					if la != lb {
						edges = append(edges, joinEdge{leafA: la, colA: lc.Idx, leafB: lb, colB: rc.Idx})
						continue
					}
				}
			}
			residuals = append(residuals, c)
		}
	}

	// Evaluate and filter each leaf. Filtered leaves are wrapped in a
	// Select node and evaluated through the subplan cache, so the same
	// filtered relation appearing in several NOT EXISTS branches is
	// computed once — the executor-level counterpart of the WITH views
	// the paper introduces for Q⁺4.
	filtered := make([]*table.Table, n)
	for i, leaf := range leaves {
		src := leaf
		if len(singles[i]) > 0 {
			remap := func(col int) int { return col - offsets[i] }
			src = algebra.Select{Child: leaf, Cond: algebra.MapCols(algebra.NewAnd(singles[i]...), remap)}
		}
		t, err := ev.evalChild(src)
		if err != nil {
			return nil, err
		}
		filtered[i] = t
	}

	// Greedy join order: start at the smallest leaf; grow via hash edges.
	joined := map[int]bool{}
	start := 0
	for i := 1; i < n; i++ {
		if filtered[i].Len() < filtered[start].Len() {
			start = i
		}
	}
	joined[start] = true
	cur := filtered[start]
	// pos maps canonical column -> position in cur (-1 when absent).
	pos := make([]int, totalArity)
	for i := range pos {
		pos[i] = -1
	}
	for c := 0; c < leaves[start].Arity(); c++ {
		pos[offsets[start]+c] = c
	}

	appliedEdge := make([]bool, len(edges))
	appliedRes := make([]bool, len(residuals))

	applyResiduals := func() error {
		for ri, c := range residuals {
			if appliedRes[ri] {
				continue
			}
			ready := true
			for _, col := range algebra.ColsUsed(c) {
				if pos[col] < 0 {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			appliedRes[ri] = true
			remapped := algebra.MapCols(c, func(col int) int { return pos[col] })
			f, err := ev.filterTable(cur, remapped)
			if err != nil {
				return err
			}
			ev.note("residual filter %s -> %d rows", c, f.Len())
			cur = f
		}
		return nil
	}
	if err := applyResiduals(); err != nil {
		return nil, err
	}

	for len(joined) < n {
		// Collect edges from the joined set to each candidate leaf.
		candEdges := map[int][]int{} // leaf -> edge indexes
		for ei, e := range edges {
			if appliedEdge[ei] {
				continue
			}
			switch {
			case joined[e.leafA] && !joined[e.leafB]:
				candEdges[e.leafB] = append(candEdges[e.leafB], ei)
			case joined[e.leafB] && !joined[e.leafA]:
				candEdges[e.leafA] = append(candEdges[e.leafA], ei)
			}
		}
		next := -1
		for leaf := range candEdges {
			if next == -1 || filtered[leaf].Len() < filtered[next].Len() {
				next = leaf
			}
		}
		if next >= 0 {
			// Hash join cur with filtered[next] on all connecting edges.
			var curCols, leafCols []int
			for _, ei := range candEdges[next] {
				e := edges[ei]
				appliedEdge[ei] = true
				if e.leafA == next {
					leafCols = append(leafCols, e.colA-offsets[next])
					curCols = append(curCols, pos[e.colB])
				} else {
					leafCols = append(leafCols, e.colB-offsets[next])
					curCols = append(curCols, pos[e.colA])
				}
			}
			var err error
			cur, err = ev.hashJoin(cur, filtered[next], curCols, leafCols)
			if err != nil {
				return nil, err
			}
			ev.stats.HashJoins++
			if ev.opts.Trace { // Key() renders the whole subtree; don't pay for it untraced
				ev.note("hash join + %s -> %d rows", leaves[next].Key(), cur.Len())
			}
		} else {
			// No connecting hash edge: Cartesian step with the smallest
			// leaf. Under sharded execution, when a residual unification
			// edge connects the joined set to that same leaf, the step
			// runs co-partitioned instead (unifyProduct): the |cur|·|leaf|
			// product the unsharded engine faithfully materializes shrinks
			// to each probe's bucket plus the wild rows. The leaf choice
			// deliberately stays the unsharded one — product-then-filter
			// and unify-product agree on rows and order only step for
			// step, so diverging on join order would break the
			// shard-ablation byte identity.
			next = -1
			for i := 0; i < n; i++ {
				if joined[i] {
					continue
				}
				if next == -1 || filtered[i].Len() < filtered[next].Len() {
					next = i
				}
			}
			uniRes := -1
			var uniCur, uniLeafCol int
			if ev.opts.shardCount() > 1 {
				for ri, c := range residuals {
					if appliedRes[ri] {
						continue
					}
					a, b, ok := unifyEdgeOf(c)
					if !ok {
						continue
					}
					if pos[a] < 0 { // orient: a already joined, b pending
						a, b = b, a
					}
					if pos[a] < 0 || pos[b] >= 0 || leafOf(b) != next {
						continue
					}
					uniRes, uniCur, uniLeafCol = ri, pos[a], b-offsets[next]
					break
				}
			}
			if uniRes >= 0 {
				appliedRes[uniRes] = true
				curArity := cur.Arity()
				remapped := algebra.MapCols(residuals[uniRes], func(col int) int {
					if leafOf(col) == next {
						return curArity + col - offsets[next]
					}
					return pos[col]
				})
				resolved, err := ev.resolveScalars(remapped)
				if err != nil {
					return nil, err
				}
				if cur, err = ev.unifyProduct(cur, filtered[next], uniCur, uniLeafCol, resolved); err != nil {
					return nil, err
				}
			} else {
				var err error
				cur, err = ev.product(cur, filtered[next])
				if err != nil {
					return nil, err
				}
			}
		}
		base := cur.Arity() - leaves[next].Arity()
		for c := 0; c < leaves[next].Arity(); c++ {
			pos[offsets[next]+c] = base + c
		}
		joined[next] = true
		if err := ev.gov.CheckRows("join-block", cur.Len()); err != nil {
			return nil, err
		}
		if err := applyResiduals(); err != nil {
			return nil, err
		}
	}

	// Any edges between leaves that were joined through other paths.
	for ei, e := range edges {
		if appliedEdge[ei] {
			continue
		}
		appliedEdge[ei] = true
		remapped := algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: pos[e.colA]}, R: algebra.Col{Idx: pos[e.colB]}}
		f, err := ev.filterTable(cur, remapped)
		if err != nil {
			return nil, err
		}
		cur = f
	}

	// Permute back to canonical column order.
	out := table.New(totalArity)
	out.Grow(cur.Len())
	for _, r := range cur.Rows() {
		nr := make(table.Row, totalArity)
		for col := 0; col < totalArity; col++ {
			nr[col] = r[pos[col]]
		}
		out.Append(nr)
	}
	ev.note("join block (%d leaves) -> %d rows", n, out.Len())
	return out, nil
}

// hashJoin joins l and r on equality of the given column lists. Output
// rows are l ++ r, ordered by l row and, within one l row, by ascending
// r row: the order of a nested loop over l, then r. The hash index
// (hashindex.go) goes on the smaller input — r on ties, and always r
// under sharded execution. Building on r probes l in order; building on
// l scans r in order and collects match pairs, which a stable counting
// sort by l row puts back into the same order. Either way the operator
// charges |l| + |r| + one unit per output row, so results, Stats and
// budget trips do not depend on the orientation. Under SQL3VL rows with
// null key values cannot match (A = NULL is unknown); under naive
// semantics marked nulls join by their marks, which the keys preserve.
func (ev *Evaluator) hashJoin(l, r *table.Table, lCols, rCols []int) (*table.Table, error) {
	if err := ev.gov.Fault(guard.SiteHashBuild); err != nil {
		return nil, err
	}
	if l.Len() < r.Len() && ev.opts.shardCount() == 1 {
		return ev.hashJoinBuildLeft(l, r, lCols, rCols)
	}
	idx, err := ev.buildIndex(r.Rows(), rCols, r.Len(), nil)
	if err != nil {
		return nil, err
	}
	ev.note("hash join build=right %d rows, probe %d rows (numkey=%v)", r.Len(), l.Len(), idx.numeric())
	// Probe partitions of l in parallel; a shared row counter enforces
	// the budget across partitions and cancels in-flight ones.
	arity := l.Arity() + r.Arity()
	lRows := l.Rows()
	chunks := make([][]table.Row, ev.opts.workers())
	maxRows := int64(ev.gov.MaxRows())
	var outRows atomic.Int64
	err = ev.runChunks(l.Len(), "hash-join", func(c *chunk) error {
		var out []table.Row
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			lr := lRows[i]
			c.st.costUnits++
			for _, ri := range idx.lookup(lr, lCols, &c.key) {
				c.st.costUnits++
				nr := make(table.Row, 0, arity)
				nr = append(nr, lr...)
				nr = append(nr, r.Row(int(ri))...)
				out = append(out, nr)
				if outRows.Add(1) > maxRows {
					return joinBudgetError(maxRows)
				}
			}
		}
		chunks[c.part] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ev.charge("hash-join", int64(r.Len())); err != nil {
		return nil, err
	}
	return concatChunks(ev.gov, arity, chunks)
}

// joinPair is one match of the build-left join: l row and r row ids.
type joinPair struct{ l, r int32 }

// hashJoinBuildLeft is hashJoin's build-left orientation: the index
// goes on l and partitions of r are scanned in parallel, each
// collecting its match pairs in r order. Concatenated in partition
// order the pairs ascend by r; a stable counting sort by l row then
// yields the build-right output order exactly.
func (ev *Evaluator) hashJoinBuildLeft(l, r *table.Table, lCols, rCols []int) (*table.Table, error) {
	idx, err := ev.buildIndex(l.Rows(), lCols, l.Len(), nil)
	if err != nil {
		return nil, err
	}
	ev.note("hash join build=left %d rows, probe %d rows (numkey=%v)", l.Len(), r.Len(), idx.numeric())
	rRows := r.Rows()
	parts := make([][]joinPair, ev.opts.workers())
	maxRows := int64(ev.gov.MaxRows())
	var outRows atomic.Int64
	err = ev.runChunks(r.Len(), "hash-join", func(c *chunk) error {
		var out []joinPair
		for j := c.lo; j < c.hi; j++ {
			if c.stopped() {
				return nil
			}
			c.st.costUnits++
			for _, i := range idx.lookup(rRows[j], rCols, &c.key) {
				c.st.costUnits++
				out = append(out, joinPair{l: i, r: int32(j)})
				if outRows.Add(1) > maxRows {
					return joinBudgetError(maxRows)
				}
			}
		}
		parts[c.part] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ev.charge("hash-join", int64(l.Len())); err != nil {
		return nil, err
	}
	// Counting sort: end[i] starts as the first slot of l row i's
	// matches and ends one past its last.
	end := make([]int32, l.Len()+1)
	for _, ps := range parts {
		for _, p := range ps {
			end[p.l+1]++
		}
	}
	for i := 0; i < l.Len(); i++ {
		end[i+1] += end[i]
	}
	n := int(end[l.Len()])
	order := make([]int32, n)
	for _, ps := range parts {
		for _, p := range ps {
			order[end[p.l]] = p.r
			end[p.l]++
		}
	}
	arity := l.Arity() + r.Arity()
	out := table.New(arity)
	out.Grow(n)
	slab := make([]value.Value, n*arity) // one allocation for every output row
	k, lo := 0, int32(0)
	for i, lr := range l.Rows() {
		for _, j := range order[lo:end[i]] {
			if k&1023 == 0 {
				if err := ev.gov.Poll("hash-join"); err != nil {
					return nil, err
				}
			}
			nr := slab[k*arity : (k+1)*arity : (k+1)*arity]
			copy(nr, lr)
			copy(nr[len(lr):], rRows[j])
			out.Append(nr)
			k++
		}
		lo = end[i]
	}
	return out, nil
}

// joinBudgetError reports a join result past the row budget.
func joinBudgetError(maxRows int64) error {
	return &guard.LimitError{Sentinel: guard.ErrRowBudget, Op: "hash-join",
		Detail: fmt.Sprintf("result exceeds %d rows", maxRows)}
}

func anyNull(r table.Row, cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// semiCond returns a semijoin's condition in NNF.
func semiCond(e algebra.SemiJoin) algebra.Cond {
	if algebra.NNFIsIdentity(e.Cond) { // translations emit NNF; skip the per-execution rebuild
		return e.Cond
	}
	return algebra.NNF(e.Cond)
}

// semiPlan is the buffered state of a correlated (anti-)semijoin: the
// evaluated right side, the resolved condition, and the chosen
// strategy. Both engines build it with prepSemi. A keyed plan then
// either indexes its right side (buildSemi) and is probed with
// probeSemi — the materializing engine probes the whole left side at
// once, the streaming engine one batch at a time — or, when the left
// side is already materialized and smaller, answers in one pass that
// indexes the left side instead (reverseSemi).
type semiPlan struct {
	anti    bool
	nL      int
	name    string // "semijoin" or "antijoin"
	cond    algebra.Cond
	trivial bool // verify condition is constant true: key presence alone decides
	slim    bool // the SlimVerify hint applied (trace notes only)
	r       *table.Table
	// fuse is the FuseBuild hint's build-side filter, still to be
	// applied to r's rows as they are indexed or scanned; nil when
	// there is none or it was applied eagerly.
	fuse algebra.Cond
	// lCols and rCols are the extracted hash-key columns, probe side
	// and build side; empty selects the nested loop.
	lCols, rCols []int
	size         int        // pre-size for an index over r
	idx          *hashIndex // index over r, set by buildSemi
	// uni is the keyed co-partition of the build side on a nested-loop
	// plan's unification edge — built only under sharded execution
	// (copartition.go); uniCol is the probe-side key column.
	uni    *shard.KeyedBuild
	uniCol int
}

// prepSemi evaluates the right side and plans the operator: extracts
// pure equality conjuncts spanning both sides as hash keys and
// resolves scalar subqueries in the condition (workers verify it, so
// substitution must happen on this goroutine). Keyed plans are
// finished by buildSemi or reverseSemi, once the caller knows whether
// the left side is materialized; the nested-loop strategy is complete
// here, and its counter is bumped here.
//
// Under the FuseBuild hint a Select build side is not materialized:
// its child is evaluated directly and the selection condition is
// applied while the index is built (or, reversed, while r is scanned),
// so no filtered copy of r is ever held. Fusion is skipped when the
// select subtree is a shared view — evaluating around it would lose
// the cache entry other plan occurrences rely on.
func (ev *Evaluator) prepSemi(e algebra.SemiJoin, cond algebra.Cond) (*semiPlan, error) {
	nL := e.L.Arity()
	hint := ev.semiHint(e.Key)
	rExpr := e.R
	var fuse algebra.Cond
	if hint.FuseBuild {
		if sel, ok := e.R.(algebra.Select); ok && !ev.sharedView(e.R) {
			rExpr, fuse = sel.Child, sel.Cond
		}
	}
	r, err := ev.evalChild(rExpr)
	if err != nil {
		return nil, err
	}
	if fuse != nil {
		// The planner only fuses scalar-free conditions; resolving is a
		// cheap no-op that keeps a hand-crafted hint from crashing.
		if fuse, err = ev.resolveScalars(fuse); err != nil {
			return nil, err
		}
	}
	p := &semiPlan{anti: e.Anti, nL: nL, name: "semijoin", r: r, slim: hint.SlimVerify}
	if e.Anti {
		p.name = "antijoin"
	}

	// Extract pure equality conjuncts spanning both sides as hash keys,
	// keeping the conjuncts that were NOT consumed as keys: when the
	// planner's SlimVerify hint applies, the residual alone is verified
	// per candidate (bucket co-membership already proves the keys equal).
	var residual []algebra.Cond
	if !ev.opts.NoHashJoin {
		for _, c := range algebra.Conjuncts(cond) {
			if cmp, ok := c.(algebra.Cmp); ok && cmp.Op == algebra.EQ {
				a, aok := cmp.L.(algebra.Col)
				b, bok := cmp.R.(algebra.Col)
				if aok && bok {
					switch {
					case a.Idx < nL && b.Idx >= nL:
						p.lCols = append(p.lCols, a.Idx)
						p.rCols = append(p.rCols, b.Idx-nL)
						continue
					case b.Idx < nL && a.Idx >= nL:
						p.lCols = append(p.lCols, b.Idx)
						p.rCols = append(p.rCols, a.Idx-nL)
						continue
					}
				}
			}
			residual = append(residual, c)
		}
	}
	keyed := len(p.lCols) > 0
	verify := cond
	if hint.SlimVerify && keyed {
		verify = algebra.NewAnd(residual...)
	}
	if p.cond, err = ev.resolveScalars(verify); err != nil {
		return nil, err
	}
	if _, isTrue := p.cond.(algebra.TrueCond); isTrue && hint.SlimVerify && keyed {
		p.trivial = true
	}
	if keyed {
		p.fuse = fuse
		p.size = r.Len()
		if hint.BuildDistinct > 0 && hint.BuildDistinct < int64(p.size) {
			p.size = int(hint.BuildDistinct)
		}
		return p, nil
	}
	if fuse != nil {
		// No hash keys extracted (hash joins disabled, or the condition
		// carries none): the nested loop scans p.r directly, so the
		// fused filter must be applied eagerly after all.
		if p.r, err = ev.filterTable(r, fuse); err != nil {
			return nil, err
		}
	}
	// Nested loop: the "confused optimizer" path that conditions of the
	// form (A = B OR B IS NULL) force, per Section 7 of the paper. Under
	// sharded execution the very disjunct that defeated hash-key
	// extraction is a unification edge, and the shard layer prunes the
	// scan with a keyed wild-bucket co-partition of the build side —
	// same verdict per probe, ~Shards× fewer comparisons.
	if k := ev.opts.shardCount(); k > 1 {
		if lc, rc, ok := spanningUnifyEdge(cond, nL); ok {
			p.uni = shard.BuildKeyed(p.r.Rows(), rc, k)
			p.uniCol = lc
			ev.note("nested-loop %s co-partitioned on probe #%d ≈ build #%d over %d shards (%d wild rows)",
				p.name, lc, nL+rc, k, len(p.uni.Wild))
		}
	}
	ev.stats.NestedLoopJoins++
	ev.note("nested-loop %s vs %d rows", p.name, p.r.Len())
	return p, nil
}

// buildsLeft reports whether a keyed plan should index its probe side
// of nL rows, already materialized, rather than r: when that side is
// the smaller input and execution is unsharded.
func (ev *Evaluator) buildsLeft(p *semiPlan, nL int) bool {
	return len(p.lCols) > 0 && nL < p.r.Len() && ev.opts.shardCount() == 1
}

// buildSemi indexes r for a keyed plan, so that probeSemi can stream
// the left side through it; nested-loop plans are left as they are.
// It charges |r| cost units, and the probe one unit per left row plus
// one per verified candidate.
func (ev *Evaluator) buildSemi(p *semiPlan) error {
	if len(p.lCols) == 0 {
		return nil
	}
	if err := ev.gov.Fault(guard.SiteHashBuild); err != nil {
		return err
	}
	idx, err := ev.buildIndex(p.r.Rows(), p.rCols, p.size, p.fuse)
	if err != nil {
		return err
	}
	if err := ev.charge("semijoin/build", int64(p.r.Len())); err != nil {
		return err
	}
	p.idx = idx
	ev.stats.HashJoins++
	ev.note("hash %s [%d keys] build=subquery %d rows (slim=%v numkey=%v fused=%v)",
		p.name, len(p.lCols), p.r.Len(), p.slim, idx.numeric(), p.fuse != nil)
	return nil
}

// semiHit is one row of r whose key found a bucket of the probe-side
// index in reverseSemi, and which passed the fused filter.
type semiHit struct{ r, bucket int32 }

// reverseSemi answers a keyed plan over the materialized probe side
// lRows by indexing lRows and scanning r once, and returns the
// qualifying rows in probe order. The scan runs in contiguous parallel
// partitions; only rows whose key hits a bucket pay for the fused
// filter, and they are collected in r order. The verify pass then walks
// the hits in that order, on this goroutine: each probe row is checked
// against its candidates in ascending r order until the first match —
// the candidates probeSemi would check — and a matched row leaves its
// bucket, so an exhausted bucket costs nothing more. The charge is
// |lRows| + |r| + one unit per verified candidate, exactly buildSemi's
// plus probeSemi's, so results, Stats and budget trips match the
// build-right orientation.
func (ev *Evaluator) reverseSemi(p *semiPlan, lRows []table.Row) ([]table.Row, error) {
	if err := ev.gov.Fault(guard.SiteHashBuild); err != nil {
		return nil, err
	}
	idx, err := ev.buildIndex(lRows, p.lCols, len(lRows), nil)
	if err != nil {
		return nil, err
	}
	if err := ev.charge("semijoin/build", int64(len(lRows))); err != nil {
		return nil, err
	}
	ev.stats.HashJoins++
	ev.note("hash %s [%d keys] build=probe-side %d rows, scan %d (slim=%v numkey=%v fused=%v)",
		p.name, len(p.lCols), len(lRows), p.r.Len(), p.slim, idx.numeric(), p.fuse != nil)

	rRows := p.r.Rows()
	parts := make([][]semiHit, ev.opts.workers())
	err = ev.runChunks(len(rRows), "semijoin/probe", func(c *chunk) error {
		if err := c.fault(guard.SiteSemijoinProbe); err != nil {
			return err
		}
		var hits []semiHit
		for j := c.lo; j < c.hi; j++ {
			if c.stopped() {
				return nil
			}
			c.st.costUnits++
			b := idx.bucket(rRows[j], p.rCols, &c.key)
			if b < 0 {
				continue
			}
			if p.fuse != nil {
				if v, err := ev.evalCond(p.fuse, rRows[j]); err != nil {
					return err
				} else if !v.IsTrue() {
					continue // rejected by the fused filter, like the standalone one
				}
			}
			hits = append(hits, semiHit{r: int32(j), bucket: b})
		}
		parts[c.part] = hits
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Verify pass. live[b] counts bucket b's still-unmatched probe rows,
	// kept in order at the front of its id range.
	live := make([]int32, idx.buckets())
	for b := range live {
		live[b] = int32(len(idx.rows(int32(b))))
	}
	matched := make([]bool, len(lRows))
	row := make(table.Row, p.nL+p.r.Arity())
	c := &chunk{st: &chunkStats{}, halt: new(atomic.Bool), gov: ev.gov, op: "semijoin/probe"}
	err = func() error {
		for _, hits := range parts {
			for _, h := range hits {
				if c.stopped() {
					return c.err
				}
				cands := idx.rows(h.bucket)[:live[h.bucket]]
				if p.trivial {
					for _, i := range cands {
						matched[i] = true
					}
					live[h.bucket] = 0
					continue
				}
				copy(row[p.nL:], rRows[h.r])
				left := cands[:0]
				for _, i := range cands {
					c.st.costUnits++
					copy(row, lRows[i])
					v, err := ev.evalCond(p.cond, row)
					if err != nil {
						return err
					}
					if v.IsTrue() {
						matched[i] = true
					} else {
						left = append(left, i)
					}
				}
				live[h.bucket] = int32(len(left))
			}
		}
		return c.flushCost()
	}()
	ev.stats.CostUnits += c.st.costUnits
	if err != nil {
		return nil, err
	}
	var out []table.Row
	for i, lr := range lRows {
		if matched[i] != p.anti {
			out = append(out, lr)
		}
	}
	return out, nil
}

// semiMatch probes one row against the plan. row is the caller-owned
// scratch buffer for candidate verification (one per worker); c
// supplies the partition's cost counters. Shared by the chunked probe
// (probeSemi) and the sharded probe (scatterProbeSemi), so the
// per-candidate cost accounting stays identical between them.
func (ev *Evaluator) semiMatch(p *semiPlan, c *chunk, row table.Row, lr table.Row) (bool, error) {
	if p.idx != nil {
		c.st.costUnits++
		cands := p.idx.lookup(lr, p.lCols, &c.key)
		if p.trivial {
			// Slim verify with empty residual: key presence alone
			// decides the match.
			return len(cands) > 0, nil
		}
		copy(row, lr)
		for _, ri := range cands {
			c.st.costUnits++
			copy(row[p.nL:], p.r.Row(int(ri)))
			v, err := ev.evalCond(p.cond, row)
			if err != nil {
				return false, err
			}
			if v.IsTrue() {
				return true, nil
			}
		}
		return false, nil
	}
	match := false
	copy(row, lr)
	if p.uni != nil && !lr[p.uniCol].IsNull() {
		// Keyed co-partition (sharded execution): only the probe key's
		// bucket plus the wild rows can satisfy the plan's unification
		// edge, and the full condition still decides each candidate —
		// the same verdict the full scan reaches, ~Shards× fewer
		// evaluations. A null probe key can unify into any bucket and
		// takes the full scan below.
		var err error
		p.uni.EachCandidate(lr[p.uniCol], func(ri int) bool {
			c.st.costUnits++
			copy(row[p.nL:], p.r.Row(ri))
			v, e := ev.evalCond(p.cond, row)
			if e != nil {
				err = e
				return false
			}
			if v.IsTrue() {
				match = true
				return false
			}
			return true
		})
		return match, err
	}
	for _, rr := range p.r.Rows() {
		c.st.costUnits++
		copy(row[p.nL:], rr)
		v, err := ev.evalCond(p.cond, row)
		if err != nil {
			return false, err
		}
		if v.IsTrue() {
			match = true
			break
		}
	}
	return match, nil
}

// probeSemi probes lRows against the plan and returns the qualifying
// rows in input order. The probe rows are independent, so the scan
// partitions across workers — the single largest lever on the
// Figure 4 / Q⁺4 cost — and partition outputs concatenate in order,
// keeping results deterministic at any Parallelism. With Shards > 1
// the partitioning is by content hash instead of contiguous chunks
// (scatterProbeSemi), with the same result bytes.
func (ev *Evaluator) probeSemi(p *semiPlan, lRows []table.Row) ([]table.Row, error) {
	if ev.opts.shardCount() > 1 {
		return ev.scatterProbeSemi(p, lRows)
	}
	chunks := make([][]table.Row, ev.opts.workers())
	err := ev.runChunks(len(lRows), "semijoin/probe", func(c *chunk) error {
		if err := c.fault(guard.SiteSemijoinProbe); err != nil {
			return err
		}
		var out []table.Row
		row := make(table.Row, p.nL+p.r.Arity())
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			lr := lRows[i]
			match, err := ev.semiMatch(p, c, row, lr)
			if err != nil {
				return err
			}
			if match != p.anti {
				out = append(out, lr)
			}
		}
		chunks[c.part] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []table.Row
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	return out, nil
}

// semiExists answers an uncorrelated subquery once: the condition
// mentions no columns of L, so "∃s ∈ R: θ(s)" has one answer for the
// whole query. Evaluating R first lets an anti-join with a witness
// short-circuit to the empty result without ever computing L — this is
// precisely why the translated Q2 runs orders of magnitude faster than
// the original.
func (ev *Evaluator) semiExists(nL int, rExpr algebra.Expr, cond algebra.Cond) (bool, error) {
	r, err := ev.evalChild(rExpr)
	if err != nil {
		return false, err
	}
	if cond, err = ev.resolveScalars(cond); err != nil {
		return false, err
	}
	exists := false
	row := make(table.Row, nL+r.Arity())
	for _, rr := range r.Rows() {
		ev.stats.CostUnits++
		if err := ev.tick("short-circuit"); err != nil {
			return false, err
		}
		copy(row[nL:], rr)
		v, err := ev.evalCond(cond, row)
		if err != nil {
			return false, err
		}
		if v.IsTrue() {
			exists = true
			break
		}
	}
	ev.stats.ShortCircuits++
	ev.note("uncorrelated subquery: exists=%v", exists)
	return exists, nil
}

// evalSemiJoin executes L ⋉θ R / L ▷θ R with the strategy selection
// described in the package comment (materializing engine).
func (ev *Evaluator) evalSemiJoin(e algebra.SemiJoin) (*table.Table, error) {
	nL := e.L.Arity()
	cond := semiCond(e)

	correlated := algebra.UsesColBelow(cond, nL)
	if !correlated && !ev.opts.NoShortCircuit {
		exists, err := ev.semiExists(nL, e.R, cond)
		if err != nil {
			return nil, err
		}
		if exists == e.Anti {
			return table.New(nL), nil // empty result, L never evaluated
		}
		return ev.evalChild(e.L)
	}

	l, err := ev.evalChild(e.L)
	if err != nil {
		return nil, err
	}
	p, err := ev.prepSemi(e, cond)
	if err != nil {
		return nil, err
	}
	var rows []table.Row
	if ev.buildsLeft(p, l.Len()) {
		rows, err = ev.reverseSemi(p, l.Rows())
	} else if err = ev.buildSemi(p); err == nil {
		rows, err = ev.probeSemi(p, l.Rows())
	}
	if err != nil {
		return nil, err
	}
	out := table.New(nL)
	out.Grow(len(rows))
	for _, r := range rows {
		out.Append(r)
	}
	ev.note("%s %d vs %d -> %d rows", p.name, l.Len(), p.r.Len(), out.Len())
	return out, nil
}
