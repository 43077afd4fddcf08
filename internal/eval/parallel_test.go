package eval_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/sql"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// parallelInstance builds one shared small TPC-H instance with nulls
// for the determinism tests.
var parallelInstance = struct {
	once sync.Once
	db   *table.Database
}{}

func parallelDB(t testing.TB) *table.Database {
	t.Helper()
	parallelInstance.once.Do(func() {
		parallelInstance.db = tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 7, NullRate: 0.04})
	})
	return parallelInstance.db
}

// prepareQuery compiles qid and its Q⁺ translation for the given
// semantics mode.
func prepareQuery(t testing.TB, db *table.Database, qid tpch.QueryID, naive bool) (orig, plus algebra.Expr, params compile.Params) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	params = qid.Params(rng, tpch.Config{ScaleFactor: 0.001}.Sizes())
	q, err := sql.Parse(qid.SQL())
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := compile.Compile(q, db.Schema, params)
	if err != nil {
		t.Fatal(err)
	}
	mode := certain.ModeSQL
	if naive {
		mode = certain.ModeNaive
	}
	tr := &certain.Translator{Sch: db.Schema, Mode: mode, SimplifyNulls: true, SplitOrs: true, KeySimplify: true}
	return compiled.Expr, tr.Plus(compiled.Expr), params
}

// TestParallelMatchesSequential asserts the determinism contract of the
// parallel executor: for Q1–Q4 and their Q⁺ translations, under both
// semantics, every Parallelism setting produces a byte-identical result
// table and identical Stats to the sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	db := parallelDB(t)
	for _, qid := range tpch.AllQueries {
		for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
			naive := sem == value.Naive
			orig, plus, _ := prepareQuery(t, db, qid, naive)
			for name, expr := range map[string]algebra.Expr{"orig": orig, "plus": plus} {
				t.Run(fmt.Sprintf("%s/%v/%s", qid, sem, name), func(t *testing.T) {
					ref := eval.New(db, eval.Options{Semantics: sem, Parallelism: 1})
					want, err := ref.Eval(expr)
					if err != nil {
						t.Fatal(err)
					}
					wantStats := ref.Stats()
					for _, par := range []int{2, 4, 5, 7} {
						ev := eval.New(db, eval.Options{Semantics: sem, Parallelism: par})
						got, err := ev.Eval(expr)
						if err != nil {
							t.Fatalf("Parallelism=%d: %v", par, err)
						}
						if got.String() != want.String() {
							t.Errorf("Parallelism=%d result differs from sequential:\ngot  %q\nwant %q",
								par, got.String(), want.String())
						}
						if gs := ev.Stats(); !reflect.DeepEqual(gs, wantStats) {
							t.Errorf("Parallelism=%d stats %+v, want %+v", par, gs, wantStats)
						}
					}
				})
			}
		}
	}
}

// TestParallelConcurrentEvaluators exercises the atomic Stats merging
// and shared-database reads under the race detector: several parallel
// evaluators run the Q⁺4 nested-loop path concurrently against the same
// database and must all agree.
func TestParallelConcurrentEvaluators(t *testing.T) {
	db := parallelDB(t)
	_, plus, _ := prepareQuery(t, db, tpch.Q4, false)

	ref := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 1})
	want, err := ref.Eval(plus)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	results := make([]*table.Table, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 3})
			results[g], errs[g] = ev.Eval(plus)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("evaluator %d: %v", g, errs[g])
		}
		if results[g].String() != want.String() {
			t.Errorf("evaluator %d result differs from sequential", g)
		}
	}
}

// TestUnifySemiCostBudget asserts that the quadratic unification
// semijoin degrades with ErrTooLarge instead of running unbounded once
// its |L|·|R| cost exceeds the Governor's MaxCostUnits.
func TestUnifySemiCostBudget(t *testing.T) {
	db := newDB(t)
	for i := 0; i < 5; i++ {
		ins(t, db, "r", table.Row{value.Int(int64(i)), value.Int(0)})
		ins(t, db, "s", table.Row{value.Int(int64(i)), value.Int(0)})
	}
	e := algebra.UnifySemi{L: baseR, R: baseS}

	if _, err := eval.New(db, eval.Options{Semantics: value.Naive, Governor: guard.Background(guard.Limits{MaxCostUnits: 10})}).Eval(e); !errors.Is(err, eval.ErrTooLarge) {
		t.Fatalf("cost 25 with budget 10: got %v, want ErrTooLarge", err)
	}
	// The governor's cost budget is cumulative across operators: the
	// two 5-row scans charge 10 units before the semijoin's 25, so the
	// whole evaluation needs 35.
	if _, err := eval.New(db, eval.Options{Semantics: value.Naive, Governor: guard.Background(guard.Limits{MaxCostUnits: 35})}).Eval(e); err != nil {
		t.Fatalf("cost 35 with budget 35: %v", err)
	}
}

// TestDivisionCostBudget is the same guard for L ÷ R.
func TestDivisionCostBudget(t *testing.T) {
	db := newDB(t)
	for i := 0; i < 6; i++ {
		ins(t, db, "r", table.Row{value.Int(int64(i % 2)), value.Int(int64(i))})
		ins(t, db, "s", table.Row{value.Int(int64(i)), value.Int(0)})
	}
	e := algebra.Division{L: baseR, R: algebra.Project{Child: baseS, Cols: []int{0}}}

	if _, err := eval.New(db, eval.Options{Semantics: value.Naive, Governor: guard.Background(guard.Limits{MaxCostUnits: 10})}).Eval(e); !errors.Is(err, eval.ErrTooLarge) {
		t.Fatalf("division with budget 10: got %v, want ErrTooLarge", err)
	}
	if _, err := eval.New(db, eval.Options{Semantics: value.Naive}).Eval(e); err != nil {
		t.Fatalf("division with default budget: %v", err)
	}
}

// TestParallelCancelsOnErrTooLarge asserts that a row-budget violation
// inside one partition aborts the whole operator with ErrTooLarge.
func TestParallelCancelsOnErrTooLarge(t *testing.T) {
	db := newDB(t)
	var rows []table.Row
	for i := 0; i < 600; i++ {
		rows = append(rows, table.Row{value.Int(0), value.Int(int64(i))})
	}
	ins(t, db, "r", rows...)
	ins(t, db, "s", rows...)
	// r ⨝ s on column 0 yields 600×600 = 360k rows, over a 1k budget.
	join := algebra.Select{
		Child: algebra.Product{L: baseR, R: baseS},
		Cond:  algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
	}
	_, err := eval.New(db, eval.Options{Semantics: value.SQL3VL, Governor: guard.Background(guard.Limits{MaxRows: 1000}), Parallelism: 4}).Eval(join)
	if !errors.Is(err, eval.ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

// TestEmptyAggregateNullsAreDistinct is the regression test for the
// shared-mark aggregate NULL bug: SUM over an empty input must yield a
// *fresh* null, so two independent empty-aggregate results must not
// compare equal (and hence not join) under naive marked-null semantics,
// and must not collide with any generator null of the database.
func TestEmptyAggregateNullsAreDistinct(t *testing.T) {
	db := newDB(t) // r and s both empty
	sumR := algebra.GroupBy{Child: baseR, Aggs: []algebra.AggSpec{{Func: algebra.AggSum, Col: 0}}}
	sumS := algebra.GroupBy{Child: baseS, Aggs: []algebra.AggSpec{{Func: algebra.AggSum, Col: 0}}}

	ev := eval.New(db, eval.Options{Semantics: value.Naive})
	join := algebra.Select{
		Child: algebra.Product{L: sumR, R: sumS},
		Cond:  algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 1}},
	}
	got, err := ev.Eval(join)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("two independent empty-SUM nulls joined under naive semantics: %v (their marks must be distinct)", got.SortedStrings())
	}

	// The marks themselves must be fresh: pairwise distinct and disjoint
	// from the database's null marks.
	prod, err := eval.New(db, eval.Options{Semantics: value.Naive}).Eval(algebra.Product{L: sumR, R: sumS})
	if err != nil {
		t.Fatal(err)
	}
	if prod.Len() != 1 {
		t.Fatalf("product of two global aggregates: %d rows, want 1", prod.Len())
	}
	a, b := prod.Row(0)[0], prod.Row(0)[1]
	if !a.IsNull() || !b.IsNull() {
		t.Fatalf("empty SUMs returned %v, %v; want nulls", a, b)
	}
	if a.NullID() == b.NullID() {
		t.Errorf("both empty-SUM nulls carry mark %d; want distinct marks", a.NullID())
	}
	dbMarks := map[int64]struct{}{}
	for _, id := range db.Nulls() {
		dbMarks[id] = struct{}{}
	}
	for _, v := range []value.Value{a, b} {
		if _, clash := dbMarks[v.NullID()]; clash {
			t.Errorf("aggregate null mark %d collides with a database null", v.NullID())
		}
	}
}
