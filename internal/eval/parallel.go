package eval

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/table"
)

// Data-parallel execution of the probe-side hot loops.
//
// The four loops that dominate the paper's "price of correctness"
// measurements — the hash-join probe, the hash and nested-loop
// semi/antijoin probes, and the unification-semijoin scan — share one
// shape: an outer scan over independent probe rows. This file provides
// the worker pool that partitions such a scan into one contiguous chunk
// per worker. Determinism is structural: every partition preserves the
// input order of its rows, and the per-partition outputs are
// concatenated in partition order, so the result table (and the summed
// Stats counters) are byte-identical to a sequential run at any
// Parallelism.
//
// Workers never touch the evaluator's mutable state: they may only call
// evalCond (after resolveScalars has substituted scalar subqueries on the
// coordinating goroutine), accumulate counters in their chunkStats
// share, and append to their own output buffer. Trace notes are emitted
// by the coordinator only.

// minParallelRows is the smallest probe side worth fanning out; below
// one chunk of this size per extra worker, goroutine handoff costs more
// than the scan.
const minParallelRows = 256

// workers resolves the Parallelism option: 0 = GOMAXPROCS, otherwise at
// least one worker.
func (o Options) workers() int {
	switch {
	case o.Parallelism > 0:
		return o.Parallelism
	case o.Parallelism == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// chunkStats is the per-partition share of the Stats counters touched
// inside probe loops; shares are merged into ev.stats when the operator
// finishes.
type chunkStats struct {
	costUnits int64
}

// chunk is one worker's slice of a partitioned probe loop. Bodies scan
// rows [lo, hi), accumulate counters in st, and call stopped between
// rows so a failing partition (or a canceled context) halts in-flight
// work promptly.
type chunk struct {
	part, lo, hi int
	st           *chunkStats
	halt         *atomic.Bool
	gov          *guard.Governor
	op           string
	ticks        int
	err          error // cancellation or budget trip observed by stopped
	// precharged marks operators that charged their projected cost to
	// the governor up front (unification semijoin); their per-row
	// counters are reporting only and must not be charged again.
	precharged bool
	charged    int64  // st.costUnits already flushed to the governor
	key        []byte // scratch for the partition's hash-index probe keys
}

// stopped reports whether the chunk should cease: another partition
// failed, or — polled amortized every pollEvery calls, so the check
// stays O(1) per row — the governor's context was canceled or the
// chunk's accumulated work tripped the cost budget. A governor trip is
// recorded in c.err and halts the other partitions.
func (c *chunk) stopped() bool {
	if c.halt.Load() {
		return true
	}
	c.ticks++
	if c.ticks%pollEvery == 0 {
		err := c.gov.Poll(c.op)
		if err == nil {
			err = c.flushCost()
		}
		if err != nil {
			c.err = err
			c.halt.Store(true)
			return true
		}
	}
	return false
}

// flushCost charges the governor for body work accumulated since the
// last flush, so probe loops count against the cumulative cost budget
// as they run. Pre-charged operators skip it.
func (c *chunk) flushCost() error {
	if c.precharged {
		return nil
	}
	if delta := c.st.costUnits - c.charged; delta > 0 {
		c.charged = c.st.costUnits
		return c.gov.ChargeCost(c.op, delta)
	}
	return nil
}

// fault invokes the governor's fault-injection hook at site; it is a
// nil check when no hook is installed.
func (c *chunk) fault(site guard.Site) error { return c.gov.Fault(site) }

// runChunks partitions [0, n) into one contiguous range per worker and
// runs body on every range, concurrently when more than one worker is
// available. The error of the lowest-numbered failing partition is
// returned; a partition that observed cancellation via stopped counts
// as failing with that error. Worker panics are recovered into
// *guard.InternalError values carrying the operator path and stack —
// a panicking worker must never kill the process or wedge wg.Wait.
// All shares — including those of halted partitions — are merged into
// ev.stats with atomic adds, so counters are consistent even when the
// operator fails mid-flight.
func (ev *Evaluator) runChunks(n int, op string, body func(c *chunk) error) error {
	return ev.runChunksOpt(n, op, false, body)
}

// runChunksPrecharged is runChunks for operators that already charged
// their projected cost to the governor up front; chunk counters feed
// Stats only.
func (ev *Evaluator) runChunksPrecharged(n int, op string, body func(c *chunk) error) error {
	return ev.runChunksOpt(n, op, true, body)
}

func (ev *Evaluator) runChunksOpt(n int, op string, precharged bool, body func(c *chunk) error) error {
	workers := ev.opts.workers()
	if max := n / minParallelRows; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	var halt atomic.Bool
	if workers == 1 {
		if err := ev.gov.Fault(guard.SiteWorkerSpawn); err != nil {
			return err
		}
		var st chunkStats
		c := &chunk{part: 0, lo: 0, hi: n, st: &st, halt: &halt, gov: ev.gov, op: op, precharged: precharged}
		err := body(c)
		if err == nil {
			err = c.flushCost()
		}
		ev.stats.CostUnits += st.costUnits
		if err == nil {
			err = c.err
		}
		return err
	}

	errs := make([]error, workers)
	shares := make([]chunkStats, workers)
	var wg sync.WaitGroup
	lo := 0
	for part := 0; part < workers; part++ {
		size := n / workers
		if part < n%workers {
			size++
		}
		hi := lo + size
		wg.Add(1)
		go func(c *chunk) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					errs[c.part] = guard.NewInternalError(fmt.Sprintf("%s/worker[%d]", op, c.part), v)
					halt.Store(true)
				}
				// Atomic merge: partitions may finish while others still
				// run, and Stats must never be torn even mid-operator.
				atomic.AddInt64(&ev.stats.CostUnits, c.st.costUnits)
			}()
			if err := c.fault(guard.SiteWorkerSpawn); err != nil {
				errs[c.part] = err
				halt.Store(true)
				return
			}
			err := body(c)
			if err == nil {
				err = c.flushCost()
			}
			if err == nil {
				err = c.err
			}
			if err != nil {
				errs[c.part] = err
				halt.Store(true)
			}
		}(&chunk{part: part, lo: lo, hi: hi, st: &shares[part], halt: &halt, gov: ev.gov, op: op, precharged: precharged})
		lo = hi
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// concatChunks assembles per-partition row buffers into one table in
// partition order, preserving the sequential output order exactly. The
// merge touches every output row after the workers have already
// finished, so it is a drain loop in its own right: it polls the
// governor (amortized) so a cancellation that lands between the
// parallel phase and the merge still stops the query instead of paying
// for the full assembly.
func concatChunks(gov *guard.Governor, arity int, chunks [][]table.Row) (*table.Table, error) {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	out := table.New(arity)
	out.Grow(n)
	appended := 0
	for _, c := range chunks {
		for _, r := range c {
			if appended&1023 == 0 {
				if err := gov.Poll("concat-chunks"); err != nil {
					return nil, err
				}
			}
			out.Append(r)
			appended++
		}
	}
	return out, nil
}

// resolveScalars returns cond with every scalar-subquery operand
// replaced by the literal it evaluates to, computing each subquery
// once (cached) on the coordinating goroutine. Scalars are
// uncorrelated, so the substitution is an identity on semantics — the
// paper's black-box-constant treatment made syntactic. Row loops then
// evaluate conditions without touching the scalar cache, whose lookup
// key is a rendering of the whole subquery and used to be recomputed
// for every row; it also keeps parallel workers off the cache map.
// Conditions without scalars are returned unchanged.
func (ev *Evaluator) resolveScalars(c algebra.Cond) (algebra.Cond, error) {
	if !condHasScalar(c) {
		return c, nil
	}
	switch c := c.(type) {
	case algebra.Cmp:
		l, err := ev.resolveOperand(c.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.resolveOperand(c.R)
		if err != nil {
			return nil, err
		}
		return algebra.Cmp{Op: c.Op, L: l, R: r}, nil
	case algebra.Like:
		o, err := ev.resolveOperand(c.Operand)
		if err != nil {
			return nil, err
		}
		p, err := ev.resolveOperand(c.Pattern)
		if err != nil {
			return nil, err
		}
		return algebra.Like{Operand: o, Pattern: p, Negated: c.Negated}, nil
	case algebra.NullTest:
		o, err := ev.resolveOperand(c.Operand)
		if err != nil {
			return nil, err
		}
		return algebra.NullTest{Operand: o, Negated: c.Negated}, nil
	case algebra.And:
		out := make([]algebra.Cond, len(c.Conds))
		for i, sub := range c.Conds {
			r, err := ev.resolveScalars(sub)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return algebra.And{Conds: out}, nil
	case algebra.Or:
		out := make([]algebra.Cond, len(c.Conds))
		for i, sub := range c.Conds {
			r, err := ev.resolveScalars(sub)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return algebra.Or{Conds: out}, nil
	case algebra.Not:
		sub, err := ev.resolveScalars(c.C)
		if err != nil {
			return nil, err
		}
		return algebra.Not{C: sub}, nil
	default: // TrueCond, FalseCond
		return c, nil
	}
}

// resolveOperand turns a scalar-subquery operand into its literal.
func (ev *Evaluator) resolveOperand(o algebra.Operand) (algebra.Operand, error) {
	s, ok := o.(algebra.Scalar)
	if !ok {
		return o, nil
	}
	v, err := ev.scalarValue(s)
	if err != nil {
		return nil, err
	}
	return algebra.Lit{Val: v}, nil
}

// condHasScalar reports whether any operand of c is a scalar subquery.
func condHasScalar(c algebra.Cond) bool {
	isScalar := func(o algebra.Operand) bool {
		_, ok := o.(algebra.Scalar)
		return ok
	}
	switch c := c.(type) {
	case algebra.Cmp:
		return isScalar(c.L) || isScalar(c.R)
	case algebra.Like:
		return isScalar(c.Operand) || isScalar(c.Pattern)
	case algebra.NullTest:
		return isScalar(c.Operand)
	case algebra.And:
		for _, sub := range c.Conds {
			if condHasScalar(sub) {
				return true
			}
		}
	case algebra.Or:
		for _, sub := range c.Conds {
			if condHasScalar(sub) {
				return true
			}
		}
	case algebra.Not:
		return condHasScalar(c.C)
	case algebra.TrueCond, algebra.FalseCond:
		// no operands
	}
	return false
}

// filterTable returns the rows of t satisfying cond, scanning
// partitions of t in parallel. This is the executor's generic filter —
// the σ fallback of evalSelect, the per-leaf and residual filter stages
// of planJoinBlock all route through it.
func (ev *Evaluator) filterTable(t *table.Table, cond algebra.Cond) (*table.Table, error) {
	cond, err := ev.resolveScalars(cond)
	if err != nil {
		return nil, err
	}
	rows := t.Rows()
	chunks := make([][]table.Row, ev.opts.workers())
	err = ev.runChunks(t.Len(), "filter", func(c *chunk) error {
		var out []table.Row
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			c.st.costUnits++
			v, err := ev.evalCond(cond, rows[i])
			if err != nil {
				return err
			}
			if v.IsTrue() {
				out = append(out, rows[i])
			}
		}
		chunks[c.part] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatChunks(ev.gov, t.Arity(), chunks)
}
