package eval_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

// Allocation regression tests: the executor copies a row's values
// once, into the result that needs them (DESIGN.md §17, "Materialize
// once"). Each test measures runtime.MemStats.TotalAlloc around one
// evaluation at Parallelism 1.

// allocated returns the bytes allocated while f runs.
func allocated(t *testing.T, f func()) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// wideDB returns relations w0..w3 of the given arity; column 0 of row i
// of wj is i mod 100 and the other columns are filler.
func wideDB(t *testing.T, arity int, sizes [4]int) *table.Database {
	t.Helper()
	s := schema.New()
	for j := range sizes {
		var attrs []schema.Attribute
		for c := 0; c < arity; c++ {
			attrs = append(attrs, schema.Attribute{Name: fmt.Sprintf("c%d", c), Type: value.KindInt, Nullable: true})
		}
		s.MustAdd(&schema.Relation{Name: fmt.Sprintf("w%d", j), Attrs: attrs})
	}
	db := table.NewDatabase(s)
	for j, n := range sizes {
		tb, err := db.Table(fmt.Sprintf("w%d", j))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			r := make(table.Row, arity)
			r[0] = value.Int(int64(i % 100))
			for c := 1; c < arity; c++ {
				r[c] = value.Int(int64(i*arity + c))
			}
			tb.Append(r)
		}
	}
	return db
}

// TestJoinBlockAllocatesOutputOnce checks that a 4-leaf join block
// allocates its output slab plus O(rows × leaves) row ids, however wide
// its intermediate results: the bytes beyond the output rows stay
// within a budget of row ids, and are the same for leaves of 2 and of
// 16 columns. Copying intermediate rows, as a wide-row executor does,
// would add bytes in proportion to their width.
func TestJoinBlockAllocatesOutputOnce(t *testing.T) {
	sizes := [4]int{100, 200, 400, 800}
	// w0.c0 = w1.c0 = w2.c0 = w3.c0 over keys i mod 100: the greedy
	// chain's intermediate results have 200, 800 and 6400 tuples.
	const out, steps = 6400, 200 + 800 + 6400
	extra := map[int]int64{}
	for _, arity := range []int{2, 16} {
		db := wideDB(t, arity, sizes)
		leaf := func(j int) algebra.Expr { return algebra.Base{Name: fmt.Sprintf("w%d", j), Cols: arity} }
		e := algebra.Select{
			Child: algebra.Product{L: algebra.Product{L: algebra.Product{L: leaf(0), R: leaf(1)}, R: leaf(2)}, R: leaf(3)},
			Cond:  eqCond([2]int{0, arity}, [2]int{arity, 2 * arity}, [2]int{2 * arity, 3 * arity}),
		}
		opts := eval.Options{Parallelism: 1}
		var n int
		bytes := allocated(t, func() {
			res, err := eval.New(db, opts).Eval(e)
			if err != nil {
				t.Fatal(err)
			}
			n = res.Len()
		})
		if n != out {
			t.Fatalf("arity %d: %d rows, want %d", arity, n, out)
		}
		// The output: one slab of values and one row header per row.
		outBytes := int64(out) * (4*int64(arity)*int64(unsafe.Sizeof(value.Value{})) + int64(unsafe.Sizeof(table.Row{})))
		extra[arity] = int64(bytes) - outBytes
		// Row ids: every leaf row and intermediate tuple, 4 leaves of
		// 4 bytes each, with 8× headroom for append growth, the
		// indexes' maps and the planner's bookkeeping.
		budget := int64(8 * 4 * 4 * (sizes[0] + sizes[1] + sizes[2] + sizes[3] + steps))
		if extra[arity] > budget {
			t.Errorf("arity %d: %d bytes beyond the %d-byte output, budget %d", arity, extra[arity], outBytes, budget)
		}
	}
	if d := extra[16] - extra[2]; d > 64<<10 || d < -64<<10 {
		t.Errorf("bytes beyond the output depend on the leaves' width: %d at arity 2, %d at arity 16", extra[2], extra[16])
	}
}

// TestSemiVerifyAllocatesNothingPerCandidate checks that verifying
// semijoin candidates allocates nothing: two evaluations that differ
// only in how many candidates each probe row verifies — 100,000 against
// a few hundred — allocate the same bytes, whichever side the index
// goes on.
func TestSemiVerifyAllocatesNothingPerCandidate(t *testing.T) {
	// a.k = b.k ∧ a.v < b.v: every b.v is below every a.v, so each
	// candidate is verified and fails.
	build := make([]table.Row, 1000)
	for i := range build {
		build[i] = ints(0, int64(i))
	}
	probe := func(key func(i int) int64) []table.Row {
		rows := make([]table.Row, 100)
		for i := range rows {
			rows[i] = ints(key(i), 5000+int64(i))
		}
		return rows
	}
	cond := algebra.NewAnd(eqCond([2]int{0, 2}), cmpCond(algebra.LT, 1, 3))
	for _, side := range []struct {
		name  string
		l     algebra.Expr
		build string
		// few and many are probe sides verifying few and 100,000
		// candidates in all.
		few, many []table.Row
	}{
		// Index on b: probe rows with key 1 miss, with key 0 verify
		// all 1000 rows of b.
		{"build=subquery", relA, "build=subquery",
			probe(func(int) int64 { return 1 }), probe(func(int) int64 { return 0 })},
		// Index on a: every b row hits one bucket and verifies its
		// members — one probe row when keys are distinct, all 100 when
		// they are shared.
		{"build=probe-side", algebra.Sort{Child: relA}, "build=probe-side",
			probe(func(i int) int64 { return int64(i) }), probe(func(int) int64 { return 0 })},
	} {
		e := algebra.SemiJoin{L: side.l, R: relB, Cond: cond}
		measure := func(a []table.Row) uint64 {
			db := kernelDB(t)
			fill(t, db, "a", a)
			fill(t, db, "b", build)
			if _, _, trace := evalTraced(t, db, e, eval.Options{Parallelism: 1}); !strings.Contains(trace, side.build) {
				t.Fatalf("%s: trace lacks %q:\n%s", side.name, side.build, trace)
			}
			return allocated(t, func() {
				res, err := eval.New(db, eval.Options{Parallelism: 1}).Eval(e)
				if err != nil {
					t.Fatalf("%s: %v", side.name, err)
				}
				if res.Len() != 0 {
					t.Fatalf("%s: %d rows, want none", side.name, res.Len())
				}
			})
		}
		few, many := measure(side.few), measure(side.many)
		if d := int64(many) - int64(few); d > 16<<10 {
			t.Errorf("%s: verifying 100,000 candidates allocated %d bytes more than verifying few", side.name, d)
		}
	}
}
