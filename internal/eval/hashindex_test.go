package eval_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

// Tests of the hash-index kernel (hashindex.go) through the two
// operators that use it: join blocks and correlated (anti-)semijoins.
// Every case is checked against a nested-loop reference written here —
// rows in order and Stats.CostUnits — in both build orientations, both
// engines, and at Parallelism 1 and 4.

// kernelDB returns a database over relations a, b and c, each with two
// nullable numeric columns k and v.
func kernelDB(t *testing.T) *table.Database {
	t.Helper()
	s := schema.New()
	for _, name := range []string{"a", "b", "c"} {
		s.MustAdd(&schema.Relation{Name: name, Attrs: []schema.Attribute{
			{Name: "k", Type: value.KindInt, Nullable: true},
			{Name: "v", Type: value.KindInt, Nullable: true},
		}})
	}
	return table.NewDatabase(s)
}

// fill stores rows in relation rel. Rows go straight to storage, so a
// key column may hold kinds the schema would reject — the mixed-kind
// column a union of differently typed relations produces.
func fill(t *testing.T, db *table.Database, rel string, rows []table.Row) {
	t.Helper()
	tb, err := db.Table(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		tb.Append(r)
	}
}

var (
	relA = algebra.Base{Name: "a", Cols: 2}
	relB = algebra.Base{Name: "b", Cols: 2}
	relC = algebra.Base{Name: "c", Cols: 2}
)

// keyEq is the reference key equality: under SQL3VL a null never
// matches; under naive semantics nulls match by mark; numbers match by
// value across int and float; other kinds match by kind and rendering.
func keyEq(x, y value.Value, naive bool) bool {
	if x.IsNull() || y.IsNull() {
		return naive && x.IsNull() && y.IsNull() && x.NullID() == y.NullID()
	}
	num := func(v value.Value) bool { return v.Kind() == value.KindInt || v.Kind() == value.KindFloat }
	if num(x) && num(y) {
		return x.AsFloat() == y.AsFloat()
	}
	return x.Kind() == y.Kind() && x.String() == y.String()
}

func rowsEq(x, y table.Row, xCols, yCols []int, naive bool) bool {
	for i := range xCols {
		if !keyEq(x[xCols[i]], y[yCols[i]], naive) {
			return false
		}
	}
	return true
}

func eqCond(pairs ...[2]int) algebra.Cond {
	var cs []algebra.Cond
	for _, p := range pairs {
		cs = append(cs, algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: p[0]}, R: algebra.Col{Idx: p[1]}})
	}
	return algebra.NewAnd(cs...)
}

func render(rows []table.Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

func semantics(naive bool) value.Semantics {
	if naive {
		return value.Naive
	}
	return value.SQL3VL
}

// engines are the executor settings every kernel case runs under.
var engines = []struct {
	name string
	opts eval.Options
}{
	{"stream/p1", eval.Options{Parallelism: 1}},
	{"stream/p4", eval.Options{Parallelism: 4}},
	{"materialize/p1", eval.Options{Parallelism: 1, Materialize: true}},
	{"materialize/p4", eval.Options{Parallelism: 4, Materialize: true}},
}

// evalTraced evaluates e with tracing on and returns rows, cost, trace.
func evalTraced(t *testing.T, db *table.Database, e algebra.Expr, opts eval.Options) ([]table.Row, int64, string) {
	t.Helper()
	opts.Trace = true
	ev := eval.New(db, opts)
	res, err := ev.Eval(e)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return res.Rows(), ev.Stats().CostUnits, ev.Trace()
}

func ints(vs ...int64) table.Row {
	r := make(table.Row, len(vs))
	for i, v := range vs {
		r[i] = value.Int(v)
	}
	return r
}

// seqRows returns n rows (i mod mod, i) for i in [0, n).
func seqRows(n, mod int) []table.Row {
	var rows []table.Row
	for i := 0; i < n; i++ {
		rows = append(rows, ints(int64(i%mod), int64(i)))
	}
	return rows
}

// refJoin is the nested-loop reference for one equi-join step: for
// every outer row in order, every inner row in order whose key matches.
// It returns the concatenated rows, outer ++ inner.
func refJoin(outer, inner []table.Row, oCols, iCols []int, naive bool) []table.Row {
	var out []table.Row
	for _, o := range outer {
		for _, in := range inner {
			if rowsEq(o, in, oCols, iCols, naive) {
				out = append(out, append(append(table.Row{}, o...), in...))
			}
		}
	}
	return out
}

// swapHalves turns inner ++ outer rows of two arity-2 relations into
// canonical a ++ b order.
func swapHalves(rows []table.Row) []table.Row {
	out := make([]table.Row, len(rows))
	for i, r := range rows {
		out[i] = table.Row{r[2], r[3], r[0], r[1]}
	}
	return out
}

// TestKernelJoinTwoLeaves checks σ_{a.keys = b.keys}(a × b) against the
// reference. The join block starts at the smaller leaf (a on ties), so
// the build goes left when the sizes differ and right when they tie.
func TestKernelJoinTwoLeaves(t *testing.T) {
	n1, n2 := value.Null(1), value.Null(2)
	cases := []struct {
		name  string
		a, b  []table.Row
		keys  [][2]int // (a col, b col)
		naive bool
		build string // expected orientation note
	}{
		{name: "l<r", a: seqRows(40, 7), b: seqRows(1500, 11), keys: [][2]int{{0, 0}}, build: "build=left"},
		{name: "l=r", a: seqRows(1200, 13), b: seqRows(1200, 5), keys: [][2]int{{0, 0}}, build: "build=right"},
		{name: "l<r/multi-column", a: seqRows(30, 4), b: seqRows(1300, 6),
			keys: [][2]int{{0, 0}, {1, 1}}, build: "build=left"},
		{name: "l=r/multi-column", a: seqRows(600, 4), b: seqRows(600, 6),
			keys: [][2]int{{0, 0}, {1, 1}}, build: "build=right"},
		{name: "int-float", a: []table.Row{ints(1, 0), {value.Float(2), value.Int(1)}, ints(3, 2)},
			b:    []table.Row{{value.Float(1), value.Int(9)}, ints(2, 8), {value.Float(2.5), value.Int(7)}, ints(1, 6)},
			keys: [][2]int{{0, 0}}, build: "build=left"},
		{name: "fallback/build-left", a: []table.Row{ints(1, 0), ints(2, 1), {value.Str("x"), value.Int(2)}, ints(1, 3)},
			b:    append(seqRows(20, 3), table.Row{value.Str("x"), value.Int(99)}, table.Row{value.Str("y"), value.Int(98)}),
			keys: [][2]int{{0, 0}}, build: "build=left"},
		{name: "fallback/build-right", a: append(seqRows(6, 3), table.Row{value.Str("x"), value.Int(99)}),
			b:    []table.Row{ints(1, 0), {value.Str("x"), value.Int(1)}, ints(2, 2), ints(0, 3), {value.Str("z"), value.Int(4)}, ints(1, 5), ints(0, 6)},
			keys: [][2]int{{0, 0}}, build: "build=right"},
		{name: "nulls/sql", a: []table.Row{{n1, value.Int(0)}, ints(1, 1), {n2, value.Int(2)}},
			b:    []table.Row{{n1, value.Int(5)}, ints(1, 6), {n2, value.Int(7)}, {n1, value.Int(8)}},
			keys: [][2]int{{0, 0}}, build: "build=left"},
		{name: "nulls/naive", a: []table.Row{{n1, value.Int(0)}, ints(1, 1), {n2, value.Int(2)}},
			b:    []table.Row{{n1, value.Int(5)}, ints(1, 6), {n2, value.Int(7)}, {n1, value.Int(8)}},
			keys: [][2]int{{0, 0}}, naive: true, build: "build=left"},
		{name: "nulls/naive/multi-column", a: []table.Row{{n1, value.Int(0)}, {n1, n2}, ints(1, 1)},
			b:    []table.Row{{n1, n2}, {n1, value.Int(0)}, ints(1, 1), {n2, n2}},
			keys: [][2]int{{0, 0}, {1, 1}}, naive: true, build: "build=left"},
		{name: "empty-left", a: nil, b: seqRows(300, 3), keys: [][2]int{{0, 0}}, build: "build=left"},
		{name: "empty-right", a: seqRows(300, 3), b: nil, keys: [][2]int{{0, 0}}, build: "build=left"},
		{name: "empty-both", a: nil, b: nil, keys: [][2]int{{0, 0}}, build: "build=right"},
	}
	for _, tc := range cases {
		db := kernelDB(t)
		fill(t, db, "a", tc.a)
		fill(t, db, "b", tc.b)
		var pairs [][2]int
		var aCols, bCols []int
		for _, k := range tc.keys {
			pairs = append(pairs, [2]int{k[0], 2 + k[1]})
			aCols, bCols = append(aCols, k[0]), append(bCols, k[1])
		}
		e := algebra.Select{Child: algebra.Product{L: relA, R: relB}, Cond: eqCond(pairs...)}

		var want []table.Row
		if len(tc.b) < len(tc.a) { // the block starts at b
			want = swapHalves(refJoin(tc.b, tc.a, bCols, aCols, tc.naive))
		} else {
			want = refJoin(tc.a, tc.b, aCols, bCols, tc.naive)
		}
		n := int64(len(tc.a) + len(tc.b))
		wantCost := 2*n + int64(len(want)) // scans, then |l| + |r| + |out|

		for _, eng := range engines {
			opts := eng.opts
			opts.Semantics = semantics(tc.naive)
			got, cost, trace := evalTraced(t, db, e, opts)
			if render(got) != render(want) {
				t.Errorf("%s/%s: rows\n%s\nwant\n%s", tc.name, eng.name, render(got), render(want))
			}
			if cost != wantCost {
				t.Errorf("%s/%s: cost %d, want %d", tc.name, eng.name, cost, wantCost)
			}
			if !strings.Contains(trace, "hash join "+tc.build) {
				t.Errorf("%s/%s: trace lacks %q:\n%s", tc.name, eng.name, tc.build, trace)
			}
		}
	}
}

// TestKernelJoinThreeLeaves reaches the third orientation, |l| > |r|:
// a (2 rows) joins b (1500 rows) building left, and the 600-row result
// then joins c (300 rows) building right.
func TestKernelJoinThreeLeaves(t *testing.T) {
	db := kernelDB(t)
	a := []table.Row{ints(1, 0), ints(2, 1)}
	b := seqRows(1500, 5)
	c := seqRows(300, 1000)
	fill(t, db, "a", a)
	fill(t, db, "b", b)
	fill(t, db, "c", c)
	// a.k = b.k AND b.v = c.k: a picks the 600 rows of b with k in
	// {1, 2}, and c's keys are 0..299.
	e := algebra.Select{
		Child: algebra.Product{L: algebra.Product{L: relA, R: relB}, R: relC},
		Cond:  eqCond([2]int{0, 2}, [2]int{3, 4}),
	}
	ab := refJoin(a, b, []int{0}, []int{0}, false)
	want := refJoin(ab, c, []int{3}, []int{0}, false)
	n := int64(len(a) + len(b) + len(c))
	wantCost := n + int64(len(a)+len(b)+len(ab)) + int64(len(ab)+len(c)+len(want))
	for _, eng := range engines {
		got, cost, trace := evalTraced(t, db, e, eng.opts)
		if render(got) != render(want) {
			t.Errorf("%s: rows differ from the reference (%d rows, want %d)", eng.name, len(got), len(want))
		}
		if cost != wantCost {
			t.Errorf("%s: cost %d, want %d", eng.name, cost, wantCost)
		}
		for _, note := range []string{"hash join build=left 2 rows, probe 1500 rows", "hash join build=right 300 rows, probe 600 rows"} {
			if !strings.Contains(trace, note) {
				t.Errorf("%s: trace lacks %q:\n%s", eng.name, note, trace)
			}
		}
	}
}

// TestKernelJoinRowBudget trips the row budget in both orientations:
// the join result, not the inputs, exceeds it, with the same typed
// error either way.
func TestKernelJoinRowBudget(t *testing.T) {
	for _, sizes := range [][2]int{{20, 2000}, {2000, 2000}} {
		db := kernelDB(t)
		fill(t, db, "a", seqRows(sizes[0], 1))
		fill(t, db, "b", seqRows(sizes[1], 1))
		e := algebra.Select{Child: algebra.Product{L: relA, R: relB}, Cond: eqCond([2]int{0, 2})}
		for _, eng := range engines {
			opts := eng.opts
			opts.Governor = guard.Background(guard.Limits{MaxRows: 5000})
			_, err := eval.New(db, opts).Eval(e)
			var le *guard.LimitError
			if !errors.Is(err, guard.ErrRowBudget) || !errors.As(err, &le) || le.Op != "hash-join" {
				t.Errorf("%v/%s: got %v, want a hash-join row-budget trip", sizes, eng.name, err)
			}
		}
	}
}

// semiCase is one (anti-)semijoin of a buffered view of a (or of a
// itself) against b on key columns, optionally verifying the residual
// a.v <> b.v and fusing the build-side filter b.v > 0.
type semiCase struct {
	name      string
	a, b      []table.Row
	keys      [][2]int // (a col, b col)
	residual  bool
	slim      bool
	fuse      bool
	anti      bool
	naive     bool
	build     string // expected orientation with a buffered probe side
	streamedL bool   // probe side a itself: streams, so never reversed
}

// expr builds the case's operator over probe side l and its hints.
func (tc semiCase) expr(l algebra.Expr) (algebra.SemiJoin, *eval.PlanHints) {
	nL := l.Arity()
	var pairs [][2]int
	for _, k := range tc.keys {
		pairs = append(pairs, [2]int{k[0], nL + k[1]})
	}
	cond := eqCond(pairs...)
	if tc.residual {
		cond = algebra.NewAnd(cond, algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: nL + 1}})
	}
	var r algebra.Expr = relB
	if tc.fuse {
		r = algebra.Select{Child: relB, Cond: algebra.Cmp{Op: algebra.GT, L: algebra.Col{Idx: 1}, R: algebra.Lit{Val: value.Int(0)}}}
	}
	e := algebra.SemiJoin{L: l, R: r, Cond: cond, Anti: tc.anti}
	hints := &eval.PlanHints{Semi: map[string]eval.SemiHint{e.Key(): {SlimVerify: tc.slim, FuseBuild: tc.fuse}}}
	return e, hints
}

// refSemi is the nested-loop reference: each probe row checks the
// build rows in order — skipping rows the fused filter rejects and rows
// whose key differs — verifying each candidate until the first match.
// It returns the qualifying probe rows and the candidates verified.
func (tc semiCase) refSemi(l, r []table.Row) ([]table.Row, int64) {
	var out []table.Row
	var verified int64
	var lCols, rCols []int
	for _, k := range tc.keys {
		lCols, rCols = append(lCols, k[0]), append(rCols, k[1])
	}
	trivial := tc.slim && !tc.residual
	for _, lr := range l {
		match := false
		for _, rr := range r {
			if tc.fuse && !(rr[1].AsFloat() > 0) {
				continue
			}
			if !rowsEq(lr, rr, lCols, rCols, tc.naive) {
				continue
			}
			if trivial {
				match = true
				break
			}
			verified++
			if !tc.residual || lr[1].AsFloat() != rr[1].AsFloat() {
				match = true
				break
			}
		}
		if match != tc.anti {
			out = append(out, lr)
		}
	}
	return out, verified
}

func semiCases() []semiCase {
	n1, n2 := value.Null(1), value.Null(2)
	nullProbe := []table.Row{{n1, value.Int(0)}, ints(1, 1), {n2, value.Int(2)}, ints(7, 3)}
	nullBuild := append(seqRows(40, 4), table.Row{n1, value.Int(5)}, table.Row{n2, value.Int(2)})
	return []semiCase{
		{name: "trivial", a: seqRows(50, 9), b: seqRows(1400, 6), keys: [][2]int{{0, 0}}, slim: true, build: "build=probe-side"},
		{name: "trivial/anti", a: seqRows(50, 9), b: seqRows(1400, 6), keys: [][2]int{{0, 0}}, slim: true, anti: true, build: "build=probe-side"},
		{name: "residual", a: seqRows(60, 8), b: seqRows(1400, 5), keys: [][2]int{{0, 0}}, residual: true, slim: true, build: "build=probe-side"},
		{name: "residual/unslim/anti", a: seqRows(60, 8), b: seqRows(1400, 5), keys: [][2]int{{0, 0}}, residual: true, anti: true, build: "build=probe-side"},
		{name: "residual/l>r", a: seqRows(1400, 5), b: seqRows(60, 8), keys: [][2]int{{0, 0}}, residual: true, slim: true, build: "build=subquery"},
		{name: "residual/l=r", a: seqRows(700, 5), b: seqRows(700, 8), keys: [][2]int{{0, 0}}, residual: true, build: "build=subquery"},
		{name: "fused", a: seqRows(60, 8), b: seqRows(1400, 5), keys: [][2]int{{0, 0}}, slim: true, fuse: true, build: "build=probe-side"},
		{name: "fused/residual/anti", a: seqRows(60, 8), b: seqRows(1400, 5), keys: [][2]int{{0, 0}}, residual: true, slim: true, fuse: true, anti: true, build: "build=probe-side"},
		{name: "fused/l>r", a: seqRows(1400, 5), b: seqRows(60, 8), keys: [][2]int{{0, 0}}, slim: true, fuse: true, build: "build=subquery"},
		{name: "multi-column", a: seqRows(40, 3), b: seqRows(1200, 4), keys: [][2]int{{0, 0}, {1, 1}}, slim: true, build: "build=probe-side"},
		{name: "multi-column/residual", a: seqRows(40, 3), b: seqRows(1200, 4), keys: [][2]int{{0, 0}, {1, 1}}, residual: true, build: "build=probe-side"},
		{name: "int-float", a: []table.Row{ints(1, 0), {value.Float(2), value.Int(1)}, ints(3, 2)},
			b:    []table.Row{{value.Float(1), value.Int(9)}, ints(2, 8), {value.Float(2.5), value.Int(7)}, ints(1, 6)},
			keys: [][2]int{{0, 0}}, residual: true, build: "build=probe-side"},
		{name: "fallback/probe-side", a: []table.Row{ints(1, 0), {value.Str("x"), value.Int(1)}, ints(2, 2)},
			b: append(seqRows(10, 3), table.Row{value.Str("x"), value.Int(7)}), keys: [][2]int{{0, 0}}, slim: true, build: "build=probe-side"},
		{name: "fallback/subquery", a: append(seqRows(12, 3), table.Row{value.Str("x"), value.Int(1)}),
			b: []table.Row{ints(1, 0), {value.Str("x"), value.Int(1)}, ints(2, 2)}, keys: [][2]int{{0, 0}}, residual: true, build: "build=subquery"},
		{name: "null-probe/anti/sql", a: nullProbe, b: nullBuild, keys: [][2]int{{0, 0}}, slim: true, anti: true, build: "build=probe-side"},
		{name: "null-probe/anti/naive", a: nullProbe, b: nullBuild, keys: [][2]int{{0, 0}}, slim: true, anti: true, naive: true, build: "build=probe-side"},
		{name: "null-probe/residual/naive", a: nullProbe, b: nullBuild, keys: [][2]int{{0, 0}}, residual: true, naive: true, build: "build=probe-side"},
		{name: "empty-probe/anti", a: nil, b: seqRows(300, 3), keys: [][2]int{{0, 0}}, residual: true, anti: true, build: "build=probe-side"},
		{name: "empty-build/anti", a: seqRows(300, 3), b: nil, keys: [][2]int{{0, 0}}, residual: true, anti: true, build: "build=subquery"},
		{name: "streamed-probe", a: seqRows(50, 9), b: seqRows(1400, 6), keys: [][2]int{{0, 0}}, residual: true, slim: true, streamedL: true, build: "build=probe-side"},
	}
}

// TestKernelSemiJoin checks (anti-)semijoins against the reference.
// The probe side is a buffered view of a (a keyless Sort), which the
// streaming engine may index just as the materializing engine may index
// its table; the streamed-probe case feeds a itself, which the
// streaming engine must leave on the probe side.
func TestKernelSemiJoin(t *testing.T) {
	for _, tc := range semiCases() {
		db := kernelDB(t)
		fill(t, db, "a", tc.a)
		fill(t, db, "b", tc.b)
		var l algebra.Expr = algebra.Sort{Child: relA}
		if tc.streamedL {
			l = relA
		}
		e, hints := tc.expr(l)
		want, verified := tc.refSemi(tc.a, tc.b)
		lCost := int64(len(tc.a)) // the scan
		if !tc.streamedL {
			lCost *= 2 // and the sort
		}
		// Probe side, the build side's scan, then |l| + |r| + verified.
		wantCost := lCost + 2*int64(len(tc.b)) + int64(len(tc.a)) + verified
		for _, eng := range engines {
			opts := eng.opts
			opts.Semantics, opts.Hints = semantics(tc.naive), hints
			got, cost, trace := evalTraced(t, db, e, opts)
			if render(got) != render(want) {
				t.Errorf("%s/%s: rows\n%s\nwant\n%s", tc.name, eng.name, render(got), render(want))
			}
			if cost != wantCost {
				t.Errorf("%s/%s: cost %d, want %d", tc.name, eng.name, cost, wantCost)
			}
			build := tc.build
			if tc.streamedL && !opts.Materialize {
				build = "build=subquery"
			}
			if !strings.Contains(trace, build) {
				t.Errorf("%s/%s: trace lacks %q:\n%s", tc.name, eng.name, build, trace)
			}
		}
	}
}

// TestKernelChainedAntiSemi is Q1's shape: an antijoin whose probe side
// is a semijoin. Both index their probe side, and the antijoin's probe
// side is the semijoin's own buffered answer.
func TestKernelChainedAntiSemi(t *testing.T) {
	for _, naive := range []bool{false, true} {
		db := kernelDB(t)
		a := append(seqRows(80, 10), table.Row{value.Null(3), value.Int(4)})
		b := append(seqRows(1500, 7), table.Row{value.Null(3), value.Int(5)})
		c := append(seqRows(1300, 4), table.Row{value.Null(3), value.Int(4)})
		fill(t, db, "a", a)
		fill(t, db, "b", b)
		fill(t, db, "c", c)
		inner := semiCase{keys: [][2]int{{0, 0}}, residual: true, slim: true, naive: naive}
		outer := semiCase{keys: [][2]int{{0, 0}}, residual: true, slim: true, anti: true, naive: naive}
		in, inHints := inner.expr(algebra.Sort{Child: relA})
		out, _ := outer.expr(in)
		out.R = relC
		hints := &eval.PlanHints{Semi: map[string]eval.SemiHint{
			in.Key():  inHints.Semi[in.Key()],
			out.Key(): {SlimVerify: true},
		}}
		mid, v1 := inner.refSemi(a, b)
		want, v2 := outer.refSemi(mid, c)
		wantCost := 2*int64(len(a)) + // scan and sort a
			2*int64(len(b)) + int64(len(a)) + v1 + // semijoin
			2*int64(len(c)) + int64(len(mid)) + v2 // antijoin
		for _, eng := range engines {
			opts := eng.opts
			opts.Semantics, opts.Hints = semantics(naive), hints
			got, cost, trace := evalTraced(t, db, out, opts)
			if render(got) != render(want) {
				t.Errorf("naive=%v/%s: rows\n%s\nwant\n%s", naive, eng.name, render(got), render(want))
			}
			if cost != wantCost {
				t.Errorf("naive=%v/%s: cost %d, want %d", naive, eng.name, cost, wantCost)
			}
			for _, note := range []string{
				fmt.Sprintf("hash semijoin [1 keys] build=probe-side %d rows, scan %d", len(a), len(b)),
				fmt.Sprintf("hash antijoin [1 keys] build=probe-side %d rows, scan %d", len(mid), len(c)),
			} {
				if !strings.Contains(trace, note) {
					t.Errorf("naive=%v/%s: trace lacks %q:\n%s", naive, eng.name, note, trace)
				}
			}
		}
	}
}

// TestBuildLeftFaults injects faults while both operators build on
// their smaller, left input: at the hash build, at the semijoin scan's
// partitions and at worker spawn, as errors, panics and cancellations.
// Each must surface as its typed error and leak no goroutine; an error
// or a cancellation must also leave no governor memory charged (a
// recovered panic poisons the evaluator instead).
func TestBuildLeftFaults(t *testing.T) {
	db := kernelDB(t)
	fill(t, db, "a", seqRows(60, 9))
	fill(t, db, "b", seqRows(3000, 6))
	join := algebra.Select{Child: algebra.Product{L: relA, R: relB}, Cond: eqCond([2]int{0, 2})}
	anti := algebra.SemiJoin{L: algebra.Sort{Child: relA}, R: relB, Anti: true,
		Cond: algebra.NewAnd(eqCond([2]int{0, 2}), algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}})}
	ops := []struct {
		name  string
		e     algebra.Expr
		note  string
		sites []guard.Site
	}{
		{"join", join, "hash join build=left 60 rows", []guard.Site{guard.SiteHashBuild, guard.SiteWorkerSpawn}},
		{"antijoin", anti, "hash antijoin [1 keys] build=probe-side 60 rows", []guard.Site{guard.SiteHashBuild, guard.SiteSemijoinProbe, guard.SiteWorkerSpawn}},
	}
	for _, op := range ops {
		for _, par := range []int{1, 4} {
			opts := eval.Options{Parallelism: par, NoSubplanCache: true}
			if _, _, trace := evalTraced(t, db, op.e, opts); !strings.Contains(trace, op.note) {
				t.Fatalf("%s: not built on the left:\n%s", op.name, trace)
			}
			for _, site := range op.sites {
				for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindCancel} {
					name := fmt.Sprintf("%s/p%d/%s/%s", op.name, par, site, kind)
					base := runtime.NumGoroutine()
					ctx, cancel := context.WithCancel(context.Background())
					inj := faultinject.New(faultinject.Fault{Site: site, Kind: kind, HitNumber: 1})
					inj.SetCancel(cancel)
					gov := guard.New(ctx, guard.Limits{})
					gov.SetFaultHook(inj)
					opts.Governor = gov
					_, err := eval.New(db, opts).Eval(op.e)
					cancel()
					if inj.Fired() == 0 {
						t.Errorf("%s: fault never fired", name)
					}
					var ie *guard.InternalError
					switch kind {
					case faultinject.KindError:
						if !errors.Is(err, faultinject.ErrInjected) {
							t.Errorf("%s: got %v, want ErrInjected", name, err)
						}
					case faultinject.KindPanic:
						if !errors.As(err, &ie) {
							t.Errorf("%s: got %v, want *guard.InternalError", name, err)
						}
					case faultinject.KindCancel:
						if !errors.Is(err, guard.ErrCanceled) {
							t.Errorf("%s: got %v, want guard.ErrCanceled", name, err)
						}
					}
					if kind != faultinject.KindPanic && gov.MemCharged() != 0 {
						t.Errorf("%s: %d bytes still charged after the failure", name, gov.MemCharged())
					}
					settleGoroutines(t, base)
				}
			}
		}
	}
}
