package eval_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

func twoRelSchema() *schema.Schema {
	s := schema.New()
	for _, name := range []string{"r", "s"} {
		s.MustAdd(&schema.Relation{Name: name, Attrs: []schema.Attribute{
			{Name: "a", Type: value.KindInt, Nullable: true},
			{Name: "b", Type: value.KindInt, Nullable: true},
		}})
	}
	return s
}

func newDB(t *testing.T) *table.Database {
	t.Helper()
	return table.NewDatabase(twoRelSchema())
}

func ins(t *testing.T, db *table.Database, rel string, rows ...table.Row) {
	t.Helper()
	for _, r := range rows {
		if err := db.Insert(rel, r); err != nil {
			t.Fatal(err)
		}
	}
}

func run(t *testing.T, db *table.Database, e algebra.Expr, opts eval.Options) *table.Table {
	t.Helper()
	res, err := eval.New(db, opts).Eval(e)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return res
}

var (
	baseR = algebra.Base{Name: "r", Cols: 2}
	baseS = algebra.Base{Name: "s", Cols: 2}
)

func TestSelectDropsUnknown(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r",
		table.Row{value.Int(1), value.Int(1)},
		table.Row{db.FreshNull(), value.Int(1)},
		table.Row{value.Int(2), value.Int(1)},
	)
	// a = 1: true for row 1, unknown for the null, false for 2.
	cond := algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Lit{Val: value.Int(1)}}
	got := run(t, db, algebra.Select{Child: baseR, Cond: cond}, eval.Options{Semantics: value.SQL3VL})
	if got.Len() != 1 {
		t.Errorf("WHERE a = 1 kept %d rows, want 1 (unknown rows dropped)", got.Len())
	}
	// NOT (a = 1): true only for 2 — the null row stays unknown.
	neg := algebra.Not{C: cond}
	got2 := run(t, db, algebra.Select{Child: baseR, Cond: neg}, eval.Options{Semantics: value.SQL3VL})
	if got2.Len() != 1 || got2.Row(0)[0] != value.Int(2) {
		t.Errorf("WHERE NOT (a = 1) kept %v", got2.SortedStrings())
	}
}

func TestSetOperations(t *testing.T) {
	db := newDB(t)
	n := db.FreshNull()
	ins(t, db, "r",
		table.Row{value.Int(1), value.Int(1)},
		table.Row{value.Int(1), value.Int(1)}, // duplicate
		table.Row{n, value.Int(2)},
	)
	ins(t, db, "s",
		table.Row{value.Int(1), value.Int(1)},
		table.Row{n, value.Int(2)},
		table.Row{value.Int(9), value.Int(9)},
	)
	opts := eval.Options{Semantics: value.SQL3VL}

	union := run(t, db, algebra.Union{L: baseR, R: baseS}, opts)
	if union.Len() != 3 { // (1,1), (⊥,2), (9,9)
		t.Errorf("union: %v", union.SortedStrings())
	}
	inter := run(t, db, algebra.Intersect{L: baseR, R: baseS}, opts)
	if inter.Len() != 2 { // (1,1) and the identical marked-null row
		t.Errorf("intersect: %v", inter.SortedStrings())
	}
	diff := run(t, db, algebra.Diff{L: baseS, R: baseR}, opts)
	if diff.Len() != 1 || diff.Row(0)[0] != value.Int(9) {
		t.Errorf("diff: %v", diff.SortedStrings())
	}
}

func TestUnifySemiJoin(t *testing.T) {
	db := newDB(t)
	n1, n2 := db.FreshNull(), db.FreshNull()
	ins(t, db, "r",
		table.Row{value.Int(1), value.Int(2)},
		table.Row{n1, n1},                     // repeated mark: both columns equal
		table.Row{value.Int(5), value.Int(6)}, // unifies with nothing in s
	)
	ins(t, db, "s",
		table.Row{value.Int(1), n2},           // unifies with (1,2) and with (⊥1,⊥1) via ⊥1=⊥2=1
		table.Row{value.Int(3), value.Int(4)}, // (⊥1,⊥1) ⇑ (3,4) fails: ⊥1 cannot be 3 and 4
	)
	opts := eval.Options{Semantics: value.Naive}
	semi := run(t, db, algebra.UnifySemi{L: baseR, R: baseS}, opts)
	if semi.Len() != 2 {
		t.Errorf("unify semijoin: %v", semi.SortedStrings())
	}
	anti := run(t, db, algebra.UnifySemi{L: baseR, R: baseS, Anti: true}, opts)
	if anti.Len() != 1 || anti.Row(0)[0] != value.Int(5) {
		t.Errorf("unify antijoin: %v", anti.SortedStrings())
	}
}

func TestAdomPower(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(2)})
	got := run(t, db, algebra.AdomPower{K: 2}, eval.Options{Semantics: value.SQL3VL})
	if got.Len() != 4 { // {1,2}²
		t.Errorf("adom^2 has %d rows, want 4", got.Len())
	}
	_, err := eval.New(db, eval.Options{Governor: guard.Background(guard.Limits{MaxRows: 10})}).Eval(algebra.AdomPower{K: 40})
	if !errors.Is(err, eval.ErrTooLarge) {
		t.Errorf("adom^40 error = %v, want ErrTooLarge", err)
	}
}

func TestProductGuard(t *testing.T) {
	db := newDB(t)
	for i := 0; i < 100; i++ {
		ins(t, db, "r", table.Row{value.Int(int64(i)), value.Int(0)})
		ins(t, db, "s", table.Row{value.Int(int64(i)), value.Int(0)})
	}
	_, err := eval.New(db, eval.Options{Governor: guard.Background(guard.Limits{MaxRows: 100})}).Eval(algebra.Product{L: baseR, R: baseS})
	if !errors.Is(err, eval.ErrTooLarge) {
		t.Errorf("product guard: %v", err)
	}
}

// TestJoinStrategiesAgree cross-validates all executor strategies on
// random inputs: hash vs nested loop for the join block and the
// semijoins, under both semantics.
func TestJoinStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func() *table.Database {
		db := newDB(t)
		for _, rel := range []string{"r", "s"} {
			n := rng.Intn(12)
			for i := 0; i < n; i++ {
				row := table.Row{value.Int(int64(rng.Intn(4))), value.Int(int64(rng.Intn(4)))}
				if rng.Float64() < 0.3 {
					row[rng.Intn(2)] = db.FreshNull()
				}
				ins(t, db, rel, row)
			}
		}
		return db
	}
	eq := algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}}
	residual := algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}}
	cond := algebra.NewAnd(eq, residual)
	exprs := []algebra.Expr{
		algebra.Select{Child: algebra.Product{L: baseR, R: baseS}, Cond: cond},
		algebra.SemiJoin{L: baseR, R: baseS, Cond: cond},
		algebra.SemiJoin{L: baseR, R: baseS, Cond: cond, Anti: true},
		algebra.SemiJoin{L: baseR, R: baseS, Cond: residual, Anti: true}, // no hash key
	}
	for i := 0; i < 60; i++ {
		db := mk()
		for _, e := range exprs {
			for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
				fast := run(t, db, e, eval.Options{Semantics: sem})
				slow := run(t, db, e, eval.Options{Semantics: sem, NoHashJoin: true, NoShortCircuit: true, NoSubplanCache: true})
				if len(fast.KeySet()) != len(slow.KeySet()) {
					t.Fatalf("strategies disagree on %s (%v):\nfast: %v\nslow: %v",
						e.Key(), sem, fast.SortedStrings(), slow.SortedStrings())
				}
				for k := range fast.KeySet() {
					if _, ok := slow.KeySet()[k]; !ok {
						t.Fatalf("strategies disagree on %s (%v)", e.Key(), sem)
					}
				}
			}
		}
	}
}

func TestHashJoinNullKeys(t *testing.T) {
	db := newDB(t)
	n := db.FreshNull()
	ins(t, db, "r", table.Row{n, value.Int(1)})
	ins(t, db, "s", table.Row{n, value.Int(2)})
	join := algebra.Select{
		Child: algebra.Product{L: baseR, R: baseS},
		Cond:  algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
	}
	// SQL mode: ⊥ = ⊥ is unknown, no join result.
	if got := run(t, db, join, eval.Options{Semantics: value.SQL3VL}); got.Len() != 0 {
		t.Errorf("SQL mode joined on null keys: %v", got.SortedStrings())
	}
	// Naive mode: identical marks join.
	if got := run(t, db, join, eval.Options{Semantics: value.Naive}); got.Len() != 1 {
		t.Errorf("naive mode missed the mark join: %v", got.SortedStrings())
	}
}

func TestUncorrelatedShortCircuit(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})
	ins(t, db, "s", table.Row{db.FreshNull(), value.Int(1)})
	// Antijoin with a condition referencing only the inner side: the
	// witness (null a) empties the result without touching L.
	cond := algebra.NullTest{Operand: algebra.Col{Idx: 2}}
	e := algebra.SemiJoin{L: baseR, R: baseS, Cond: cond, Anti: true}
	ev := eval.New(db, eval.Options{Semantics: value.SQL3VL})
	got, err := ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("antijoin result: %v", got.SortedStrings())
	}
	if ev.Stats().ShortCircuits != 1 {
		t.Errorf("short circuits = %d, want 1", ev.Stats().ShortCircuits)
	}
	// Semi variant keeps all of L.
	semi := algebra.SemiJoin{L: baseR, R: baseS, Cond: cond}
	if got := run(t, db, semi, eval.Options{Semantics: value.SQL3VL}); got.Len() != 1 {
		t.Errorf("semijoin result: %v", got.SortedStrings())
	}
	// No witness: antijoin keeps L.
	noWitness := algebra.SemiJoin{L: baseR, R: baseS, Cond: algebra.NullTest{Operand: algebra.Col{Idx: 3}}, Anti: true}
	if got := run(t, db, noWitness, eval.Options{Semantics: value.SQL3VL}); got.Len() != 1 {
		t.Errorf("antijoin without witness: %v", got.SortedStrings())
	}
}

func TestSubplanCacheStats(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})
	sel := algebra.Select{Child: baseR, Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Lit{Val: value.Int(1)}}}
	e := algebra.Union{L: sel, R: sel}
	ev := eval.New(db, eval.Options{Semantics: value.SQL3VL})
	if _, err := ev.Eval(e); err != nil {
		t.Fatal(err)
	}
	if ev.Stats().CacheHits == 0 {
		t.Error("identical subplans not cached")
	}
	ev2 := eval.New(db, eval.Options{Semantics: value.SQL3VL, NoSubplanCache: true})
	if _, err := ev2.Eval(e); err != nil {
		t.Fatal(err)
	}
	if ev2.Stats().CacheHits != 0 {
		t.Error("cache hits despite NoSubplanCache")
	}
}

func TestTraceAndReport(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})
	ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Trace: true})
	if _, err := ev.Eval(algebra.Distinct{Child: baseR}); err != nil {
		t.Fatal(err)
	}
	tr := ev.Trace()
	if !strings.Contains(tr, "scan r") || !strings.Contains(tr, "distinct") {
		t.Errorf("trace = %q", tr)
	}
	if !strings.Contains(ev.Report(), "cost=") {
		t.Errorf("report = %q", ev.Report())
	}
	ev.ResetStats()
	if ev.Stats().CostUnits != 0 || ev.Trace() != "" {
		t.Error("ResetStats incomplete")
	}
}

func TestColumnOutOfRange(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})
	bad := algebra.Select{Child: baseR, Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 9}, R: algebra.Lit{Val: value.Int(1)}}}
	if _, err := eval.New(db, eval.Options{}).Eval(bad); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestUnknownBaseRelation(t *testing.T) {
	db := newDB(t)
	if _, err := eval.New(db, eval.Options{}).Eval(algebra.Base{Name: "nope", Cols: 1}); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestGreedyJoinBlockOrder(t *testing.T) {
	// Three-way join with a selective filter on one leaf: the planner
	// must produce correct results regardless of sizes, including when
	// a leaf has no connecting edge (Cartesian step).
	s := schema.New()
	for _, name := range []string{"x", "y", "z"} {
		s.MustAdd(&schema.Relation{Name: name, Attrs: []schema.Attribute{
			{Name: "k", Type: value.KindInt, Nullable: true},
			{Name: "v", Type: value.KindInt, Nullable: true},
		}})
	}
	db := table.NewDatabase(s)
	rng := rand.New(rand.NewSource(10))
	for _, name := range []string{"x", "y", "z"} {
		for i := 0; i < 8; i++ {
			if err := db.Insert(name, table.Row{value.Int(int64(rng.Intn(3))), value.Int(int64(rng.Intn(3)))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	bx := algebra.Base{Name: "x", Cols: 2}
	by := algebra.Base{Name: "y", Cols: 2}
	bz := algebra.Base{Name: "z", Cols: 2}
	// x.k = y.k AND y.v = 1, z unconnected (Cartesian), residual x.v <> z.v.
	cond := algebra.NewAnd(
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 3}, R: algebra.Lit{Val: value.Int(1)}},
		algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 5}},
	)
	e := algebra.Select{Child: algebra.Product{L: algebra.Product{L: bx, R: by}, R: bz}, Cond: cond}
	fast := run(t, db, e, eval.Options{Semantics: value.SQL3VL})
	slow := run(t, db, e, eval.Options{Semantics: value.SQL3VL, NoHashJoin: true})
	if fast.Len() != slow.Len() {
		t.Fatalf("join block planner disagrees with naive product: %d vs %d", fast.Len(), slow.Len())
	}
	// Column order must be canonical: spot-check one row's provenance.
	for _, r := range fast.Rows() {
		if eqv, _ := value.Compare(r[0], r[2]); eqv != 0 {
			t.Fatalf("join key mismatch in output row %v", r)
		}
		if r[3] != value.Int(1) {
			t.Fatalf("filter violated in output row %v", r)
		}
	}
}
