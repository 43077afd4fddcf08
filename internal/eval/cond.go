package eval

import (
	"fmt"

	"certsql/internal/algebra"
	"certsql/internal/table"
	"certsql/internal/tvl"
	"certsql/internal/value"
)

// condFn is a condition compiled by compileCond: it evaluates the
// condition over a row under the evaluator's semantics. Under SQL3VL
// the result is three-valued with Kleene connectives; under Naive it is
// two-valued (Unknown never arises). Row loops compile their condition
// once per operator and call it per row: walking the algebra tree for
// every row cost about four times as much per atom.
type condFn func(row table.Row) (tvl.TV, error)

// compileCond compiles c. A node it cannot evaluate compiles to a
// condition that fails on every row, so an error surfaces exactly where
// a row reaches it, as it would in a tree walk.
func (ev *Evaluator) compileCond(c algebra.Cond) condFn {
	switch c := c.(type) {
	case algebra.TrueCond:
		return func(table.Row) (tvl.TV, error) { return tvl.True, nil }
	case algebra.FalseCond:
		return func(table.Row) (tvl.TV, error) { return tvl.False, nil }

	case algebra.Cmp:
		op := c.Op
		l, lok := direct(c.L)
		r, rok := direct(c.R)
		if lok && rok {
			// Columns and literals, the operands of nearly every
			// atom, are read inline.
			return func(row table.Row) (tvl.TV, error) {
				a, b := l.lit, r.lit
				if l.col >= 0 {
					if l.col >= len(row) {
						return tvl.False, colRangeError(l.col, row)
					}
					a = row[l.col]
				}
				if r.col >= 0 {
					if r.col >= len(row) {
						return tvl.False, colRangeError(r.col, row)
					}
					b = row[r.col]
				}
				return ev.compare(op, a, b), nil
			}
		}
		lf, rf := ev.compileOperand(c.L), ev.compileOperand(c.R)
		return func(row table.Row) (tvl.TV, error) {
			a, err := lf(row)
			if err != nil {
				return tvl.False, err
			}
			b, err := rf(row)
			if err != nil {
				return tvl.False, err
			}
			return ev.compare(op, a, b), nil
		}

	case algebra.Like:
		of, pf := ev.compileOperand(c.Operand), ev.compileOperand(c.Pattern)
		negated := c.Negated
		return func(row table.Row) (tvl.TV, error) {
			o, err := of(row)
			if err != nil {
				return tvl.False, err
			}
			p, err := pf(row)
			if err != nil {
				return tvl.False, err
			}
			res := value.Like(ev.opts.Semantics, o, p)
			if negated {
				res = res.Not()
			}
			return res, nil
		}

	case algebra.NullTest:
		of := ev.compileOperand(c.Operand)
		negated := c.Negated
		return func(row table.Row) (tvl.TV, error) {
			o, err := of(row)
			if err != nil {
				return tvl.False, err
			}
			// IS NULL / IS NOT NULL are two-valued even in SQL.
			res := tvl.FromBool(o.IsNull())
			if negated {
				res = res.Not()
			}
			return res, nil
		}

	case algebra.And:
		subs := ev.compileConds(c.Conds)
		return func(row table.Row) (tvl.TV, error) {
			res := tvl.True
			for _, sub := range subs {
				v, err := sub(row)
				if err != nil {
					return tvl.False, err
				}
				res = res.And(v)
				if res.IsFalse() {
					return res, nil
				}
			}
			return res, nil
		}

	case algebra.Or:
		subs := ev.compileConds(c.Conds)
		return func(row table.Row) (tvl.TV, error) {
			res := tvl.False
			for _, sub := range subs {
				v, err := sub(row)
				if err != nil {
					return tvl.False, err
				}
				res = res.Or(v)
				if res.IsTrue() {
					return res, nil
				}
			}
			return res, nil
		}

	case algebra.Not:
		sub := ev.compileCond(c.C)
		return func(row table.Row) (tvl.TV, error) {
			v, err := sub(row)
			if err != nil {
				return tvl.False, err
			}
			return v.Not(), nil
		}

	default:
		err := fmt.Errorf("eval: unknown condition %T", c)
		return func(table.Row) (tvl.TV, error) { return tvl.False, err }
	}
}

func (ev *Evaluator) compileConds(cs []algebra.Cond) []condFn {
	out := make([]condFn, len(cs))
	for i, c := range cs {
		out[i] = ev.compileCond(c)
	}
	return out
}

// directOperand is a column (col >= 0) or a literal, read without a
// call.
type directOperand struct {
	col int
	lit value.Value
}

// direct returns o as a directOperand when it is a non-negative column
// or a literal.
func direct(o algebra.Operand) (directOperand, bool) {
	switch o := o.(type) {
	case algebra.Col:
		return directOperand{col: o.Idx}, o.Idx >= 0
	case algebra.Lit:
		return directOperand{col: -1, lit: o.Val}, true
	default:
		return directOperand{}, false
	}
}

func colRangeError(col int, row table.Row) error {
	return fmt.Errorf("eval: column #%d out of range for row of arity %d", col, len(row))
}

// compare evaluates one comparison atom under the active semantics.
func (ev *Evaluator) compare(op algebra.CmpOp, l, r value.Value) tvl.TV {
	sem := ev.opts.Semantics
	switch op {
	case algebra.EQ:
		return value.Equal(sem, l, r)
	case algebra.NE:
		return value.Equal(sem, l, r).Not()
	case algebra.LT:
		return value.OrderCmp(sem, l, r, func(c int) bool { return c < 0 })
	case algebra.LE:
		return value.OrderCmp(sem, l, r, func(c int) bool { return c <= 0 })
	case algebra.GT:
		return value.OrderCmp(sem, l, r, func(c int) bool { return c > 0 })
	default: // GE
		return value.OrderCmp(sem, l, r, func(c int) bool { return c >= 0 })
	}
}

// compileOperand compiles an operand's read from a row. Scalar
// subqueries are computed once per evaluator and cached (the paper's
// black-box treatment of aggregate subqueries), on the first row that
// reads them; row loops resolve them beforehand (resolveScalars).
func (ev *Evaluator) compileOperand(o algebra.Operand) func(row table.Row) (value.Value, error) {
	switch o := o.(type) {
	case algebra.Col:
		return func(row table.Row) (value.Value, error) {
			if o.Idx < 0 || o.Idx >= len(row) {
				return value.Value{}, colRangeError(o.Idx, row)
			}
			return row[o.Idx], nil
		}
	case algebra.Lit:
		return func(table.Row) (value.Value, error) { return o.Val, nil }
	case algebra.Scalar:
		return func(table.Row) (value.Value, error) { return ev.scalarValue(o) }
	default:
		err := fmt.Errorf("eval: unknown operand %T", o)
		return func(table.Row) (value.Value, error) { return value.Value{}, err }
	}
}

// scalarValue computes (and caches) an uncorrelated scalar aggregate
// subquery. SQL semantics: nulls in the aggregated column are ignored;
// AVG/SUM/MIN/MAX over an empty input are NULL (rendered here as a
// freshly-marked null disjoint from every database null, which makes
// any comparison against them unknown under SQL3VL and never unifies
// with another null under naive semantics); COUNT over an empty input
// is 0.
func (ev *Evaluator) scalarValue(s algebra.Scalar) (value.Value, error) {
	key := s.String()
	if v, ok := ev.scalar[key]; ok {
		return v, nil
	}
	t, err := ev.evalChild(s.Sub)
	if err != nil {
		return value.Value{}, err
	}
	var (
		count int64
		sum   float64
		min   value.Value
		max   value.Value
		have  bool
	)
	for _, r := range t.Rows() {
		if s.Col < 0 {
			// COUNT(*): count rows, nulls included.
			count++
			continue
		}
		v := r[s.Col]
		if v.IsNull() {
			continue
		}
		count++
		switch s.Agg {
		case algebra.AggCount:
			// already tallied above; COUNT keeps no running value
		case algebra.AggAvg, algebra.AggSum:
			sum += v.AsFloat()
		case algebra.AggMin:
			if !have {
				min = v
			} else if c, ok := value.Compare(v, min); ok && c < 0 {
				min = v
			}
		case algebra.AggMax:
			if !have {
				max = v
			} else if c, ok := value.Compare(v, max); ok && c > 0 {
				max = v
			}
		}
		have = true
	}
	var out value.Value
	switch s.Agg {
	case algebra.AggCount:
		out = value.Int(count)
	case algebra.AggSum:
		if !have {
			out = ev.freshAggNull()
		} else {
			out = value.Float(sum)
		}
	case algebra.AggAvg:
		if !have {
			out = ev.freshAggNull()
		} else {
			out = value.Float(sum / float64(count))
		}
	case algebra.AggMin:
		if !have {
			out = ev.freshAggNull()
		} else {
			out = min
		}
	case algebra.AggMax:
		if !have {
			out = ev.freshAggNull()
		} else {
			out = max
		}
	}
	ev.scalar[key] = out
	return out, nil
}
