package eval

import (
	"fmt"
	"sort"
	"sync/atomic"

	"certsql/internal/algebra"
	"certsql/internal/guard"
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
// The intermediate result is a joinBlock of row-id tuples; the output
// rows, in the canonical column order of the product, are written once
// when the block finishes.
func (ev *Evaluator) planJoinBlock(leaves []algebra.Expr, cond algebra.Cond) (*table.Table, error) {
	n := len(leaves)
	offsets := make([]int, n+1)
	for i, l := range leaves {
		offsets[i+1] = offsets[i] + l.Arity()
	}
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
	start := 0
	for i := 1; i < n; i++ {
		if filtered[i].Len() < filtered[start].Len() {
			start = i
		}
	}
	b := newJoinBlock(filtered, offsets, start)

	appliedRes := make([]bool, len(residuals))

	applyResiduals := func() error {
		for ri, c := range residuals {
			if appliedRes[ri] {
				continue
			}
			ready := true
			for _, col := range algebra.ColsUsed(c) {
				if !b.joined(b.colLeaf[col]) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			appliedRes[ri] = true
			if err := ev.filterBlock(b, c); err != nil {
				return err
			}
			ev.note("residual filter %s -> %d rows", c, b.len())
		}
		return nil
	}
	if err := applyResiduals(); err != nil {
		return nil, err
	}

	for b.width() < n {
		// Collect edges from the joined set to each candidate leaf. An
		// edge with both leaves joined was applied by the step that
		// joined the later one.
		candEdges := map[int][]int{} // leaf -> edge indexes
		for ei, e := range edges {
			switch {
			case b.joined(e.leafA) && !b.joined(e.leafB):
				candEdges[e.leafB] = append(candEdges[e.leafB], ei)
			case b.joined(e.leafB) && !b.joined(e.leafA):
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
			// Hash join the block with filtered[next] on all connecting
			// edges: block key columns canonical, leaf key columns local.
			// Every edge is applied here, when the later of its leaves
			// joins — the edge closing a cycle is one more key column —
			// since a Cartesian step happens only when no edge connects
			// the block to an unjoined leaf.
			var curCols, leafCols []int
			for _, ei := range candEdges[next] {
				e := edges[ei]
				if e.leafA == next {
					leafCols = append(leafCols, e.colA-offsets[next])
					curCols = append(curCols, e.colB)
				} else {
					leafCols = append(leafCols, e.colB-offsets[next])
					curCols = append(curCols, e.colA)
				}
			}
			if err := ev.hashJoin(b, next, curCols, leafCols); err != nil {
				return nil, err
			}
			ev.stats.HashJoins++
			if ev.opts.Trace { // Key() renders the whole subtree; don't pay for it untraced
				ev.note("hash join + %s -> %d rows", leaves[next].Key(), b.len())
			}
		} else {
			// No connecting edge: Cartesian step with the smallest leaf.
			next = -1
			for i := 0; i < n; i++ {
				if b.joined(i) {
					continue
				}
				if next == -1 || filtered[i].Len() < filtered[next].Len() {
					next = i
				}
			}
			if err := ev.productStep(b, next); err != nil {
				return nil, err
			}
		}
		if err := ev.gov.CheckRows("join-block", b.len()); err != nil {
			return nil, err
		}
		if err := applyResiduals(); err != nil {
			return nil, err
		}
	}

	out, err := ev.materializeBlock(b)
	if err != nil {
		return nil, err
	}
	ev.note("join block (%d leaves) -> %d rows", n, out.Len())
	return out, nil
}

// joinBlock is a join block's intermediate result: one tuple of row ids
// per joined row, one id per leaf joined so far, in join order. Key and
// residual columns are read through the ids; no value is copied until
// materializeBlock writes the output rows.
type joinBlock struct {
	leaves  []*table.Table // the filtered leaves, canonical order
	offsets []int          // first canonical column of each leaf
	colLeaf []int          // canonical column -> its leaf
	slot    []int          // leaf -> its position in a tuple, -1 while unjoined
	order   []int          // position in a tuple -> leaf
	ids     []int32        // tuples of width() ids, back to back
}

// newJoinBlock starts a block at leaf start: one tuple per row.
func newJoinBlock(leaves []*table.Table, offsets []int, start int) *joinBlock {
	b := &joinBlock{leaves: leaves, offsets: offsets, slot: make([]int, len(leaves))}
	b.colLeaf = make([]int, offsets[len(leaves)])
	for l := range leaves {
		b.slot[l] = -1
		for c := offsets[l]; c < offsets[l+1]; c++ {
			b.colLeaf[c] = l
		}
	}
	b.slot[start] = 0
	b.order = []int{start}
	b.ids = make([]int32, leaves[start].Len())
	for i := range b.ids {
		b.ids[i] = int32(i)
	}
	return b
}

func (b *joinBlock) width() int        { return len(b.order) }
func (b *joinBlock) len() int          { return len(b.ids) / b.width() }
func (b *joinBlock) joined(l int) bool { return b.slot[l] >= 0 }

// tuple returns tuple i's ids.
func (b *joinBlock) tuple(i int) []int32 { return b.ids[i*b.width() : (i+1)*b.width()] }

// ref locates canonical column col of a joined leaf.
func (b *joinBlock) ref(col int) keyCol {
	l := b.colLeaf[col]
	return keyCol{rows: b.leaves[l].Rows(), slot: b.slot[l], col: col - b.offsets[l]}
}

// keys is the tuple-form key source over canonical columns cols.
func (b *joinBlock) keys(cols []int) keySource {
	s := keySource{n: b.len(), ids: b.ids, width: b.width(), cols: make([]keyCol, len(cols))}
	for j, c := range cols {
		s.cols[j] = b.ref(c)
	}
	return s
}

// extend records that ids now holds the tuples extended by a row id of
// leaf l.
func (b *joinBlock) extend(l int, ids []int32) {
	b.slot[l] = len(b.order)
	b.order = append(b.order, l)
	b.ids = ids
}

// hashJoin joins the block with leaf next on equality of the block's
// canonical columns curCols and the leaf's columns leafCols, extending
// every tuple by the id of each matching leaf row. Tuples come out
// ordered by block tuple and, within one tuple, by ascending leaf row:
// the order of a nested loop over the block, then the leaf. The hash
// index (hashindex.go) goes on the smaller input — the leaf on ties.
// Building on the leaf probes the tuples in order; building on the
// block scans the leaf in order and collects match pairs, which a
// stable counting sort by tuple puts back into the same order. Either
// way the operator charges |block| + |leaf| + one unit per output
// tuple, so results, Stats and budget trips do not depend on the
// orientation. Under SQL3VL rows with null key values cannot match
// (A = NULL is unknown); under naive semantics marked nulls join by
// their marks, which the keys preserve.
func (ev *Evaluator) hashJoin(b *joinBlock, next int, curCols, leafCols []int) error {
	if err := ev.gov.Fault(guard.SiteHashBuild); err != nil {
		return err
	}
	leaf := b.leaves[next]
	curKeys, leafKeys := b.keys(curCols), rowKeys(leaf.Rows(), leafCols)
	if b.len() < leaf.Len() {
		return ev.hashJoinBuildLeft(b, next, &curKeys, &leafKeys)
	}
	idx, err := ev.buildIndex(&leafKeys, leaf.Len(), nil, false)
	if err != nil {
		return err
	}
	ev.note("hash join build=right %d rows, probe %d rows (numkey=%v)", leaf.Len(), b.len(), idx.numeric())
	var ids []int32
	if idx.empty() {
		// Every probe misses: skip the loop, charge it all the same.
		if err := ev.skipProbe("hash-join", b.len()); err != nil {
			return err
		}
	} else {
		// Probe partitions of the block in parallel; a shared row
		// counter enforces the budget across partitions and cancels
		// in-flight ones.
		w := b.width()
		parts := make([][]int32, ev.opts.workers())
		maxRows := int64(ev.gov.MaxRows())
		var outRows atomic.Int64
		err = ev.runChunks(b.len(), "hash-join", func(c *chunk) error {
			var out []int32
			for i := c.lo; i < c.hi; i++ {
				if c.stopped() {
					return nil
				}
				c.st.costUnits++
				for _, ri := range idx.lookup(&curKeys, i, &c.key) {
					c.st.costUnits++
					out = append(out, b.ids[i*w:(i+1)*w]...)
					out = append(out, ri)
					if outRows.Add(1) > maxRows {
						return joinBudgetError(maxRows)
					}
				}
			}
			parts[c.part] = out
			return nil
		})
		if err != nil {
			return err
		}
		ids = concatIDs(parts)
	}
	if err := ev.charge("hash-join", int64(leaf.Len())); err != nil {
		return err
	}
	b.extend(next, ids)
	return nil
}

// skipProbe stands in for a probe loop over n entries against an empty
// index: nothing can match, so the loop is skipped, but its n cost
// units are charged and the governor polled as the loop would have.
func (ev *Evaluator) skipProbe(op string, n int) error {
	if err := ev.gov.Poll(op); err != nil {
		return err
	}
	return ev.charge(op, int64(n))
}

// concatIDs joins per-partition id buffers in partition order; a
// single non-empty buffer is returned as it is.
func concatIDs(parts [][]int32) []int32 {
	n := 0
	for _, ids := range parts {
		n += len(ids)
	}
	for _, ids := range parts {
		if len(ids) == n {
			return ids // the only non-empty buffer, or none
		}
	}
	out := make([]int32, 0, n)
	for _, ids := range parts {
		out = append(out, ids...)
	}
	return out
}

// joinPair is one match of the build-left join: block tuple and leaf
// row.
type joinPair struct{ l, r int32 }

// hashJoinBuildLeft is hashJoin's build-left orientation: the index
// goes on the block's tuples and partitions of the leaf are scanned in
// parallel, each collecting its match pairs in leaf order.
// Concatenated in partition order the pairs ascend by leaf row; a
// stable counting sort by tuple then yields the build-right output
// order exactly.
func (ev *Evaluator) hashJoinBuildLeft(b *joinBlock, next int, curKeys, leafKeys *keySource) error {
	leaf := b.leaves[next]
	nCur := b.len()
	idx, err := ev.buildIndex(curKeys, nCur, nil, false)
	if err != nil {
		return err
	}
	ev.note("hash join build=left %d rows, probe %d rows (numkey=%v)", nCur, leaf.Len(), idx.numeric())
	if idx.empty() {
		if err := ev.skipProbe("hash-join", leaf.Len()); err != nil {
			return err
		}
		if err := ev.charge("hash-join", int64(nCur)); err != nil {
			return err
		}
		b.extend(next, nil)
		return nil
	}
	parts := make([][]joinPair, ev.opts.workers())
	maxRows := int64(ev.gov.MaxRows())
	var outRows atomic.Int64
	err = ev.runChunks(leaf.Len(), "hash-join", func(c *chunk) error {
		var out []joinPair
		for j := c.lo; j < c.hi; j++ {
			if c.stopped() {
				return nil
			}
			c.st.costUnits++
			for _, i := range idx.lookup(leafKeys, j, &c.key) {
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
		return err
	}
	if err := ev.charge("hash-join", int64(nCur)); err != nil {
		return err
	}
	// Counting sort: end[i] starts as the first slot of tuple i's
	// matches and ends one past its last.
	end := make([]int32, nCur+1)
	for _, ps := range parts {
		for _, p := range ps {
			end[p.l+1]++
		}
	}
	for i := 0; i < nCur; i++ {
		end[i+1] += end[i]
	}
	n := int(end[nCur])
	order := make([]int32, n)
	for _, ps := range parts {
		for _, p := range ps {
			order[end[p.l]] = p.r
			end[p.l]++
		}
	}
	w := b.width()
	ids := make([]int32, 0, n*(w+1)) // the extended tuples, exactly sized
	lo := int32(0)
	for i := 0; i < nCur; i++ {
		for _, j := range order[lo:end[i]] {
			if len(ids)&1023 == 0 {
				if err := ev.gov.Poll("hash-join"); err != nil {
					return err
				}
			}
			ids = append(ids, b.tuple(i)...)
			ids = append(ids, j)
		}
		lo = end[i]
	}
	b.extend(next, ids)
	return nil
}

// productStep extends every tuple of the block by every row of leaf
// next — a join step with no connecting edge — guarding the row
// budget like the product operator.
func (ev *Evaluator) productStep(b *joinBlock, next int) error {
	nCur, nLeaf := b.len(), b.leaves[next].Len()
	n := nCur * nLeaf
	if nCur != 0 && n/nCur != nLeaf {
		return &guard.LimitError{Sentinel: guard.ErrRowBudget, Op: "product",
			Detail: fmt.Sprintf("product of %d × %d rows overflows", nCur, nLeaf)}
	}
	if err := ev.gov.CheckRows("product", n); err != nil {
		return err
	}
	ids := make([]int32, 0, n*(b.width()+1))
	for i := 0; i < nCur; i++ {
		if err := ev.tick("product"); err != nil {
			return err
		}
		t := b.tuple(i)
		for j := 0; j < nLeaf; j++ {
			ids = append(ids, t...)
			ids = append(ids, int32(j))
		}
	}
	if err := ev.charge("product", int64(n)); err != nil {
		return err
	}
	b.extend(next, ids)
	ev.note("product -> %d rows", n)
	return nil
}

// filterBlock keeps the tuples satisfying cond, a condition over
// canonical columns of joined leaves, scanning partitions of the block
// in parallel. Each partition verifies on its own scratch row in
// canonical layout, into which only the columns cond reads are copied.
// It charges one cost unit per tuple, like filterTable.
func (ev *Evaluator) filterBlock(b *joinBlock, cond algebra.Cond) error {
	cond, err := ev.resolveScalars(cond)
	if err != nil {
		return err
	}
	holds := ev.compileCond(cond)
	cols := algebra.ColsUsed(cond)
	refs := make([]keyCol, len(cols))
	for j, c := range cols {
		refs[j] = b.ref(c)
	}
	w, arity := b.width(), b.offsets[len(b.leaves)]
	keep := make([]bool, b.len())
	err = ev.runChunks(b.len(), "filter", func(c *chunk) error {
		row := make(table.Row, arity)
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			c.st.costUnits++
			t := b.ids[i*w : (i+1)*w]
			for j, r := range refs {
				row[cols[j]] = r.rows[t[r.slot]][r.col]
			}
			v, err := holds(row)
			if err != nil {
				return err
			}
			keep[i] = v.IsTrue()
		}
		return nil
	})
	if err != nil {
		return err
	}
	ids, err := gather(ev.gov, b.ids, w, keep)
	if err != nil {
		return err
	}
	b.ids = ids
	return nil
}

// materializeBlock writes the block's rows in canonical column order:
// the one copy of the values a join block makes, into one slab owned
// by the result table.
func (ev *Evaluator) materializeBlock(b *joinBlock) (*table.Table, error) {
	n, w, arity := b.len(), b.width(), b.offsets[len(b.leaves)]
	if err := ev.gov.Poll("join-block"); err != nil {
		return nil, err
	}
	slab := make([]value.Value, n*arity)
	rows := make([]table.Row, n)
	for i := range rows {
		if i&1023 == 1023 {
			if err := ev.gov.Poll("join-block"); err != nil {
				return nil, err
			}
		}
		row := slab[i*arity : (i+1)*arity : (i+1)*arity]
		for s, id := range b.ids[i*w : (i+1)*w] {
			l := b.order[s]
			copy(row[b.offsets[l]:], b.leaves[l].Row(int(id)))
		}
		rows[i] = row
	}
	return table.FromRows(arity, rows), nil
}

// joinBudgetError reports a join result past the row budget.
func joinBudgetError(maxRows int64) error {
	return &guard.LimitError{Sentinel: guard.ErrRowBudget, Op: "hash-join",
		Detail: fmt.Sprintf("result exceeds %d rows", maxRows)}
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
	verify  condFn // the resolved verify condition, compiled
	trivial bool   // verify condition is constant true: key presence alone decides
	slim    bool   // the SlimVerify hint applied (trace notes only)
	r       *table.Table
	// fuse is the FuseBuild hint's build-side filter, compiled, still
	// to be applied to r's rows as they are indexed or scanned; nil
	// when there is none or it was applied eagerly.
	fuse condFn
	// lCols and rCols are the extracted hash-key columns, probe side
	// and build side; empty selects the nested loop. rKeys reads r's.
	lCols, rCols []int
	rKeys        keySource
	size         int        // pre-size for an index over r
	idx          *hashIndex // index over r, set by buildSemi
	// lUsed and rUsed are the columns cond reads, of the probe row and
	// of r's row: all that verification copies into its scratch row.
	lUsed, rUsed []int
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
	if verify, err = ev.resolveScalars(verify); err != nil {
		return nil, err
	}
	p.verify = ev.compileCond(verify)
	if _, isTrue := verify.(algebra.TrueCond); isTrue && hint.SlimVerify && keyed {
		p.trivial = true
	}
	for _, c := range algebra.ColsUsed(verify) {
		if c < nL {
			p.lUsed = append(p.lUsed, c)
		} else {
			p.rUsed = append(p.rUsed, c-nL)
		}
	}
	if keyed {
		p.rKeys = rowKeys(r.Rows(), p.rCols)
		if fuse != nil {
			p.fuse = ev.compileCond(fuse)
		}
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
	// form (A = B OR B IS NULL) force, per Section 7 of the paper.
	ev.stats.NestedLoopJoins++
	ev.note("nested-loop %s vs %d rows", p.name, p.r.Len())
	return p, nil
}

// buildsLeft reports whether a keyed plan should index its probe side
// of nL rows, already materialized, rather than r: when that side is
// the smaller input.
func (ev *Evaluator) buildsLeft(p *semiPlan, nL int) bool {
	return len(p.lCols) > 0 && nL < p.r.Len()
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
	idx, err := ev.buildIndex(&p.rKeys, p.size, p.fuse, p.trivial)
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
	lKeys := rowKeys(lRows, p.lCols)
	idx, err := ev.buildIndex(&lKeys, len(lRows), nil, false)
	if err != nil {
		return nil, err
	}
	if err := ev.charge("semijoin/build", int64(len(lRows))); err != nil {
		return nil, err
	}
	ev.stats.HashJoins++
	ev.note("hash %s [%d keys] build=probe-side %d rows, scan %d (slim=%v numkey=%v fused=%v)",
		p.name, len(p.lCols), len(lRows), p.r.Len(), p.slim, idx.numeric(), p.fuse != nil)

	// The scan runs even when idx is empty, unlike the other probe
	// loops (skipProbe): skipping it saves the original query a pass
	// that the translated query's filters over the same relation still
	// make, and on Figure 4's naive plans that pushes Q1's price of
	// correctness from about 1.9 to about 2.6.
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
			b := idx.bucket(&p.rKeys, j, &c.key)
			if b < 0 {
				continue
			}
			if p.fuse != nil {
				if v, err := p.fuse(rRows[j]); err != nil {
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
				p.setR(row, rRows[h.r])
				left := cands[:0]
				for _, i := range cands {
					c.st.costUnits++
					p.setL(row, lRows[i])
					v, err := p.verify(row)
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
	for i := range matched {
		matched[i] = matched[i] != p.anti // now: row i is in the answer
	}
	return gather(ev.gov, lRows, 1, matched)
}

// setL copies into the scratch row the probe-row columns cond reads.
func (p *semiPlan) setL(row, lr table.Row) {
	for _, c := range p.lUsed {
		row[c] = lr[c]
	}
}

// setR copies into the scratch row the r-row columns cond reads.
func (p *semiPlan) setR(row, rr table.Row) {
	for _, c := range p.rUsed {
		row[p.nL+c] = rr[c]
	}
}

// semiMatch probes probe row lr, entry i of lKeys, against the plan.
// row is the caller-owned scratch buffer for candidate verification
// (one per worker); c supplies the partition's cost counters.
func (ev *Evaluator) semiMatch(p *semiPlan, c *chunk, row table.Row, lKeys *keySource, i int, lr table.Row) (bool, error) {
	if p.idx != nil {
		c.st.costUnits++
		cands := p.idx.lookup(lKeys, i, &c.key)
		if p.trivial {
			// Slim verify with empty residual: key presence alone
			// decides the match.
			return len(cands) > 0, nil
		}
		p.setL(row, lr)
		for _, ri := range cands {
			c.st.costUnits++
			p.setR(row, p.r.Row(int(ri)))
			v, err := p.verify(row)
			if err != nil {
				return false, err
			}
			if v.IsTrue() {
				return true, nil
			}
		}
		return false, nil
	}
	p.setL(row, lr)
	for _, rr := range p.r.Rows() {
		// The quadratic loop of Section 7 polls inside one probe row
		// too: |r| verifications per row can be long.
		if c.stopped() {
			return false, c.err
		}
		c.st.costUnits++
		p.setR(row, rr)
		v, err := p.verify(row)
		if err != nil {
			return false, err
		}
		if v.IsTrue() {
			return true, nil
		}
	}
	return false, nil
}

// probeSemi probes lRows against the plan and returns the qualifying
// rows in input order. The probe rows are independent, so the scan
// partitions across workers — the single largest lever on the
// Figure 4 / Q⁺4 cost — recording each row's verdict; one gather then
// writes the answer at its exact size, keeping results deterministic
// at any Parallelism.
func (ev *Evaluator) probeSemi(p *semiPlan, lRows []table.Row) ([]table.Row, error) {
	if p.idx != nil && p.idx.empty() {
		// Every probe misses: skip the loop, charge it all the same.
		if err := ev.skipProbe("semijoin/probe", len(lRows)); err != nil {
			return nil, err
		}
		if !p.anti {
			return nil, nil
		}
		return append(make([]table.Row, 0, len(lRows)), lRows...), nil
	}
	lKeys := rowKeys(lRows, p.lCols)
	keep := make([]bool, len(lRows))
	err := ev.runChunks(len(lRows), "semijoin/probe", func(c *chunk) error {
		if err := c.fault(guard.SiteSemijoinProbe); err != nil {
			return err
		}
		row := make(table.Row, p.nL+p.r.Arity())
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			match, err := ev.semiMatch(p, c, row, &lKeys, i, lRows[i])
			if err != nil {
				return err
			}
			keep[i] = match != p.anti
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return gather(ev.gov, lRows, 1, keep)
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
	holds := ev.compileCond(cond)
	exists := false
	row := make(table.Row, nL+r.Arity())
	for _, rr := range r.Rows() {
		ev.stats.CostUnits++
		if err := ev.tick("short-circuit"); err != nil {
			return false, err
		}
		copy(row[nL:], rr)
		v, err := holds(row)
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
	out := table.FromRows(nL, rows)
	ev.note("%s %d vs %d -> %d rows", p.name, l.Len(), p.r.Len(), out.Len())
	return out, nil
}
