package eval

import (
	"fmt"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/table"
	"certsql/internal/value"
)

// The streaming engine's operator family: composable pull-based batch
// iterators. A pipeline of iterators replaces the materializing
// engine's per-operator tables for the operators that can stream —
// scans, single-leaf selections, projections, limits, distincts,
// unions, and (anti-)semijoin probes. Everything else (hash builds,
// join blocks, sorts, aggregations, set operations, divisions, adom
// powers, shared views) stays buffered behind bufferedIter, the
// explicit streaming/buffered boundary.
//
// The contract:
//
//   - next returns the next batch of at most batchSize rows, nil when
//     exhausted, or an error; after nil or an error the iterator must
//     not be pulled again.
//   - batches and their rows are read-only and remain valid after
//     further next calls (rows are shared, never mutated).
//   - close releases iterator-held resources; it is idempotent and must
//     be called exactly once by the owner of the pipeline root (parents
//     close their children).
//   - iterators run on the coordinating goroutine only; data
//     parallelism lives inside a batch (probeSemi partitions each
//     batch across workers), never across pulls.
//
// Governance is per-batch, not per-operator: the drain loop polls the
// governor, fires the SiteBatchPull fault hook, checks the row budget
// and charges estimated memory incrementally on every pull, so
// cancellation and budget trips are observed within one batch of where
// they occur, not after a full materialization.

// batchSize is the row count a pipeline pulls per batch — small enough
// that per-batch governance reacts promptly, large enough that the
// per-batch overhead vanishes against per-row work.
const batchSize = 1024

// iter is one streaming operator. Implementations form the iterator
// node family; iterName's type switch over it is exhaustive (vetcert's
// famexhaustive rule).
type iter interface {
	next() ([]table.Row, error)
	arity() int
	close()
	isIter()
}

// iterName names an iterator node for traces and error reports.
func iterName(it iter) string {
	switch it.(type) {
	case *scanIter:
		return "scan"
	case *filterIter:
		return "filter"
	case *projectIter:
		return "project"
	case *limitIter:
		return "limit"
	case *distinctIter:
		return "distinct"
	case *unionIter:
		return "union"
	case *semiProbeIter:
		return "semijoin-probe"
	case *bufferedIter:
		return "buffered"
	case *emptyIter:
		return "empty"
	default:
		return fmt.Sprintf("%T", it)
	}
}

// scanIter streams a stored relation in batches. The scan fault and
// the full scan cost are charged at construction, mirroring the
// materializing engine's per-scan accounting; no memory is charged —
// the relation is storage, not executor-materialized state.
type scanIter struct {
	rows []table.Row
	ar   int
	off  int
}

func (ev *Evaluator) newScanIter(e algebra.Base) (*scanIter, error) {
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
	return &scanIter{rows: t.Rows(), ar: t.Arity()}, nil
}

func (it *scanIter) next() ([]table.Row, error) {
	if it.off >= len(it.rows) {
		return nil, nil
	}
	hi := it.off + batchSize
	if hi > len(it.rows) {
		hi = len(it.rows)
	}
	b := it.rows[it.off:hi]
	it.off = hi
	return b, nil
}

func (it *scanIter) arity() int { return it.ar }
func (it *scanIter) close()     {}
func (it *scanIter) isIter()    {}

// filterIter applies a selection condition row by row. Scalar
// subqueries in the condition are resolved at construction, after the
// child pipeline is built — the same evaluation order as the
// materializing engine, so mark minting agrees.
type filterIter struct {
	ev    *Evaluator
	child iter
	cond  algebra.Cond
	keep  []bool // per-batch verdicts, reused across batches
}

func (ev *Evaluator) newFilterIter(child iter, cond algebra.Cond) (*filterIter, error) {
	cond, err := ev.resolveScalars(cond)
	if err != nil {
		child.close()
		return nil, err
	}
	return &filterIter{ev: ev, child: child, cond: cond}, nil
}

func (it *filterIter) next() ([]table.Row, error) {
	for {
		batch, err := it.child.next()
		if batch == nil || err != nil {
			return nil, err
		}
		if err := it.ev.charge("filter", int64(len(batch))); err != nil {
			return nil, err
		}
		// Verdicts first, then one exactly sized output: the output
		// batch is the filter's only allocation.
		keep, n := it.keep[:0], 0
		for _, r := range batch {
			v, err := it.ev.evalCond(it.cond, r)
			if err != nil {
				return nil, err
			}
			keep = append(keep, v.IsTrue())
			if v.IsTrue() {
				n++
			}
		}
		it.keep = keep
		if n > 0 {
			out := make([]table.Row, 0, n)
			for i, r := range batch {
				if keep[i] {
					out = append(out, r)
				}
			}
			return out, nil
		}
	}
}

func (it *filterIter) arity() int { return it.child.arity() }
func (it *filterIter) close()     { it.child.close() }
func (it *filterIter) isIter()    {}

// projectIter rewrites each row onto the projection's column list.
type projectIter struct {
	ev    *Evaluator
	child iter
	cols  []int
}

func (it *projectIter) next() ([]table.Row, error) {
	batch, err := it.child.next()
	if batch == nil || err != nil {
		return nil, err
	}
	if err := it.ev.charge("project", int64(len(batch))); err != nil {
		return nil, err
	}
	out := make([]table.Row, len(batch))
	for i, r := range batch {
		nr := make(table.Row, len(it.cols))
		for j, c := range it.cols {
			nr[j] = r[c]
		}
		out[i] = nr
	}
	return out, nil
}

func (it *projectIter) arity() int { return len(it.cols) }
func (it *projectIter) close()     { it.child.close() }
func (it *projectIter) isIter()    {}

// limitIter passes the first n rows and stops pulling its child — the
// one operator where streaming does strictly less work than the
// materializing engine.
type limitIter struct {
	child iter
	left  int
	done  bool
}

func (it *limitIter) next() ([]table.Row, error) {
	if it.done || it.left == 0 {
		return nil, nil
	}
	batch, err := it.child.next()
	if batch == nil || err != nil {
		it.done = true
		return nil, err
	}
	if len(batch) > it.left {
		batch = batch[:it.left]
	}
	it.left -= len(batch)
	return batch, nil
}

func (it *limitIter) arity() int { return it.child.arity() }
func (it *limitIter) close()     { it.child.close() }
func (it *limitIter) isIter()    {}

// distinctIter deduplicates by mark-aware row identity, keeping first
// occurrences — the streaming counterpart of table.Distinct. chargeOp
// names the operator charged one cost unit per input row; it is empty
// when the dedup rides inside a union, which charges its own rows.
type distinctIter struct {
	ev       *Evaluator
	child    iter
	chargeOp string
	seen     map[string]struct{}
}

func (it *distinctIter) next() ([]table.Row, error) {
	for {
		batch, err := it.child.next()
		if batch == nil || err != nil {
			return nil, err
		}
		if it.chargeOp != "" {
			if err := it.ev.charge(it.chargeOp, int64(len(batch))); err != nil {
				return nil, err
			}
		}
		var out []table.Row
		for _, r := range batch {
			k := value.RowKey(r)
			if _, dup := it.seen[k]; dup {
				continue
			}
			it.seen[k] = struct{}{}
			out = append(out, r)
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (it *distinctIter) arity() int { return it.child.arity() }
func (it *distinctIter) close()     { it.child.close() }
func (it *distinctIter) isIter()    {}

// unionIter concatenates its left child then its right; buildIter
// wraps it in a distinctIter for set-semantics union.
type unionIter struct {
	ev   *Evaluator
	l, r iter
	onR  bool
}

func (it *unionIter) next() ([]table.Row, error) {
	for {
		src := it.l
		if it.onR {
			src = it.r
		}
		batch, err := src.next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			if it.onR {
				return nil, nil
			}
			it.onR = true
			continue
		}
		if err := it.ev.charge("union", int64(len(batch))); err != nil {
			return nil, err
		}
		return batch, nil
	}
}

func (it *unionIter) arity() int { return it.l.arity() }
func (it *unionIter) close()     { it.l.close(); it.r.close() }
func (it *unionIter) isIter()    {}

// semiProbeIter probes left-side batches against a buffered semijoin
// plan (see prepSemi): the right side and its hash index are built
// once at construction — the buffered boundary — while the probe side
// streams through a batch at a time. Each batch partitions across
// workers exactly as the materializing engine partitions the whole
// probe side.
type semiProbeIter struct {
	ev    *Evaluator
	p     *semiPlan
	child iter
}

func (it *semiProbeIter) next() ([]table.Row, error) {
	for {
		batch, err := it.child.next()
		if batch == nil || err != nil {
			return nil, err
		}
		out, err := it.ev.probeSemi(it.p, batch)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (it *semiProbeIter) arity() int { return it.p.nL }
func (it *semiProbeIter) close()     { it.child.close() }
func (it *semiProbeIter) isIter()    {}

// bufferedIter is the explicit streaming/buffered boundary: it streams
// a fully materialized table — a hash-build input, a shared view, a
// sort or aggregation result — into the enclosing pipeline. The
// table's memory charge is owned by the frame that materialized it
// (see drainExpr), not by the iterator. A build-left semijoin's answer
// (reverseSemi) also streams through one; its rows are rows of the
// buffered probe side, so it adds no charge of its own.
type bufferedIter struct {
	t   *table.Table
	off int
}

func (it *bufferedIter) next() ([]table.Row, error) {
	if it.off >= it.t.Len() {
		return nil, nil
	}
	hi := it.off + batchSize
	if hi > it.t.Len() {
		hi = it.t.Len()
	}
	b := it.t.Rows()[it.off:hi]
	it.off = hi
	return b, nil
}

func (it *bufferedIter) arity() int { return it.t.Arity() }
func (it *bufferedIter) close()     {}
func (it *bufferedIter) isIter()    {}

// emptyIter yields nothing; short-circuited antijoins compile to it.
type emptyIter struct{ ar int }

func (it *emptyIter) next() ([]table.Row, error) { return nil, nil }
func (it *emptyIter) arity() int                 { return it.ar }
func (it *emptyIter) close()                     {}
func (it *emptyIter) isIter()                    {}
