package certsql_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"certsql"
	"certsql/internal/tpch"
)

// benchPlanDB is the instance the planner benchmarks run on: a complete
// TPC-H generation with 5% nulls injected into orders and customer
// only. Restricting injection mirrors the paper's per-scenario choice
// of null attributes and is what gives the statistics something to
// prove: lineitem, part, supplier and nation stay null-free in the
// data, so the planner's null-test-elimination premises actually hold
// and are re-checked against live statistics on each prepared
// execution.
func benchPlanDB() (*certsql.DB, tpch.Sizes) {
	cfg := tpch.Config{ScaleFactor: 0.004, Seed: 42}
	inner := tpch.Generate(cfg)
	tpch.InjectNullsInto(inner, 0.05, rand.New(rand.NewSource(42)), "orders", "customer")
	return certsql.FromInternal(inner), cfg.Sizes()
}

// planVariant is one (translation, planner) cell of the speedup matrix.
// Raw keeps the Section 7 translation's `A = B OR B IS NULL`
// disjunctions intact (Options.NoOrSplit) — the hash-hostile shape the
// paper reports confusing a production optimizer — so the cost-based
// planner's anti-split rule is doing the rescue instead of the
// translator. Parallelism is pinned to 1: the ratios measure plan
// quality, not scheduler behaviour.
type planVariant struct {
	query string
	label string // "default" or "raw"
	text  string
	param certsql.Params
	cost  certsql.Options
	naive certsql.Options
}

// plannerVariants yields the certain-mode appendix queries with seeded
// parameter bindings, under both the default and the raw translation.
// Raw Q4 is excluded: its translation's join block has only
// `= OR IS NULL` join edges, so the greedy runtime planner finds no
// equality edges and the block degenerates to a 20M-row Cartesian
// product under the naive AND the cost-based planner alike — the
// planner cannot rescue a query it is forbidden to reorder.
func plannerVariants(t testing.TB) []planVariant {
	_, sizes := benchPlanDB()
	rng := rand.New(rand.NewSource(7))
	var out []planVariant
	for _, q := range tpch.AllQueries {
		params := q.Params(rng, sizes)
		text, err := certsql.WithMode(q.SQL(), "certain")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, planVariant{
			query: q.String(), label: "default", text: text, param: params,
			cost:  certsql.Options{Parallelism: 1},
			naive: certsql.Options{Parallelism: 1, NaivePlanner: true},
		})
		if q.String() == "Q4" {
			continue
		}
		out = append(out, planVariant{
			query: q.String(), label: "raw", text: text, param: params,
			cost:  certsql.Options{Parallelism: 1, NoOrSplit: true},
			naive: certsql.Options{Parallelism: 1, NoOrSplit: true, NaivePlanner: true},
		})
	}
	return out
}

// BenchmarkPlannerSpeedup times the certain-answer translations
// Q⁺1–Q⁺4 under the cost-based planner against the paper-faithful
// naive plans (Options.NaivePlanner), on prepared statements so the
// measurement is execution, not planning. The planner's anti-split,
// null-test elimination, fused builds and hash hints turn the
// translations' nested-loop antijoins back into hash joins — the
// entire point of the subsystem; EXPERIMENTS.md records the measured
// ratios. Run with:
//
//	make bench-plan
func BenchmarkPlannerSpeedup(b *testing.B) {
	db, _ := benchPlanDB()
	for _, v := range plannerVariants(b) {
		for _, side := range []struct {
			name string
			opts certsql.Options
		}{{"cost-based", v.cost}, {"naive", v.naive}} {
			b.Run(fmt.Sprintf("%s/%s/%s", v.query, v.label, side.name), func(b *testing.B) {
				stmt, err := db.Prepare(v.text)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := stmt.ExecuteWithOptions(v.param, side.opts)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Stats.CostUnits), "cost-units")
				}
			})
		}
	}
}

// TestPlannerSpeedup is the acceptance check behind the benchmark: on
// at least two of the four appendix queries the cost-based planner
// must run the certain-answer translation at least 1.5× faster than
// the naive planner (best-of-five wall times on prepared statements, a
// query counting if it clears the bar under either translation), while
// returning byte-identical results everywhere. The measured ratios are
// far above the margin — Q3 ~2.6× under the default translation, Q2
// ~3.7× under the raw one (see EXPERIMENTS.md) — so scheduler noise
// cannot flake it.
func TestPlannerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	db, _ := benchPlanDB()
	best := func(v planVariant, opts certsql.Options) (time.Duration, string) {
		stmt, err := db.Prepare(v.text)
		if err != nil {
			t.Fatal(err)
		}
		min, result := time.Duration(0), ""
		for i := 0; i < 5; i++ {
			start := time.Now()
			res, err := stmt.ExecuteWithOptions(v.param, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", v.query, v.label, err)
			}
			if d := time.Since(start); min == 0 || d < min {
				min = d
			}
			result = res.Table().String()
		}
		return min, result
	}
	fast := map[string]bool{}
	for _, v := range plannerVariants(t) {
		opt, optTable := best(v, v.cost)
		naive, naiveTable := best(v, v.naive)
		if optTable != naiveTable {
			t.Errorf("%s/%s: planner changes result bytes", v.query, v.label)
		}
		ratio := float64(naive) / float64(opt)
		t.Logf("%s/%-7s: naive %v / cost-based %v = %.2fx", v.query, v.label, naive, opt, ratio)
		if ratio >= 1.5 {
			fast[v.query] = true
		}
	}
	if len(fast) < 2 {
		t.Errorf("cost-based planner reached a 1.5x speedup on only %d of 4 appendix queries, want >= 2", len(fast))
	}
}

// routeStressDB is the instance Q⁺2 is timed on in BenchmarkRoutes:
// scale factor 0.02 with 5% nulls confined to part, a relation Q⁺2
// never reads. On benchPlanDB any null o_custkey certainly-matches
// every customer, so Q⁺2's raw unification antijoin stops at the first
// null row and there is nothing to time; confining the nulls keeps it
// the quadratic orders scan of Section 7.
var routeStressDB = sync.OnceValues(func() (*certsql.DB, tpch.Sizes) {
	cfg := tpch.Config{ScaleFactor: 0.02, Seed: 42}
	inner := tpch.Generate(cfg)
	tpch.InjectNullsInto(inner, 0.05, rand.New(rand.NewSource(42)), "part")
	return certsql.FromInternal(inner), cfg.Sizes()
})

// BenchmarkRoutes times the certain-answer translations Q⁺1–Q⁺4 on
// the three routes of the OR-split ablation, prepared, at
// Parallelism 1:
//
//   - raw: Options.NaivePlanner + Options.NoOrSplit, the Section 7
//     shape whose `A = B OR B IS NULL` conditions defeat hash keys;
//   - default: the OR-split translation under the cost-based planner;
//   - naive-orsplit: the OR-split translation under the naive planner.
//
// Q⁺2 runs on routeStressDB, the others on benchPlanDB. The rows
// metric lets a reader check that every route returns the same answer
// size. EXPERIMENTS.md ("Why there is no sharding") records the table.
// Run with:
//
//	make bench-plan
func BenchmarkRoutes(b *testing.B) {
	planDB, planSizes := benchPlanDB()
	stressDB, stressSizes := routeStressDB()
	rng := rand.New(rand.NewSource(7))
	for _, q := range tpch.AllQueries {
		db, sizes := planDB, planSizes
		if q == tpch.Q2 {
			db, sizes = stressDB, stressSizes
		}
		params := q.Params(rng, sizes)
		text, err := certsql.WithMode(q.SQL(), "certain")
		if err != nil {
			b.Fatal(err)
		}
		for _, route := range []struct {
			name string
			opts certsql.Options
		}{
			{"raw", certsql.Options{Parallelism: 1, NaivePlanner: true, NoOrSplit: true}},
			{"default", certsql.Options{Parallelism: 1}},
			{"naive-orsplit", certsql.Options{Parallelism: 1, NaivePlanner: true}},
		} {
			b.Run(fmt.Sprintf("%s/%s", q, route.name), func(b *testing.B) {
				stmt, err := db.Prepare(text)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := stmt.ExecuteWithOptions(params, route.opts)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Len()), "rows")
					b.ReportMetric(float64(res.Stats.CostUnits), "cost-units")
				}
			})
		}
	}
}
