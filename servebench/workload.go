package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"certsql"
	"certsql/internal/compile"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// nullRate is the server's -nullrate for every workload, and the rate
// at which the ingest writer nulls nullable attributes of new rows.
const nullRate = 0.03

// Plan is one (query, mode, binding) triple: the unit the server's
// plan cache keys on, and the unit answers are checked per.
type Plan struct {
	Query   tpch.QueryID
	Certain bool
	Params  compile.Params
	Text    string // statement text sent on the wire; mode is in the text
}

// Shape names the statement shape, e.g. "q4" or "q4_plus" (Q⁺4, the
// certain-answer translation).
func (p Plan) Shape() string { return shapeName(p.Query, p.Certain) }

func shapeName(q tpch.QueryID, certain bool) string {
	s := strings.ToLower(q.String())
	if certain {
		s += "_plus"
	}
	return s
}

// shapes lists the 8 statement shapes in report order.
func shapes() []string {
	var out []string
	for _, certain := range []bool{false, true} {
		for _, q := range tpch.AllQueries {
			out = append(out, shapeName(q, certain))
		}
	}
	return out
}

// statement returns the wire text of query q in the given mode. The
// mode rides in the text (SELECT vs SELECT CERTAIN), so the server
// parses each request once and a plan-cache miss parses it again.
func statement(q tpch.QueryID, certain bool) string {
	if !certain {
		return q.SQL()
	}
	text, err := certsql.WithMode(q.SQL(), "certain")
	if err != nil {
		panic(err) // Q1–Q4 are fixed texts with a leading SELECT
	}
	return text
}

// fingerprint renders a binding deterministically; two bindings with
// the same fingerprint select the same cached plan.
func fingerprint(p compile.Params) string {
	return fmt.Sprintf("%v", map[string]any(p)) // fmt sorts map keys
}

// Workload is one named traffic mix.
type Workload struct {
	Name string
	SF   float64
	// Durable runs certsqld with -data-dir (a fresh directory per run),
	// the writer inside the read window, and kill -9 and restarts after
	// it. Only ingest is durable.
	Durable bool
	// Readers is the number of closed-loop read clients in the window.
	Readers int
	// Pool builds the seeded plan pool; Stream draws a client's
	// request sequence from it.
	Pool   func(seed int64, sz tpch.Sizes, data *table.Database) []Plan
	Stream func(rng *rand.Rand, pool []Plan) func() int
	// Warm is the number of requests sent before timing, drawn from a
	// stream no timed client uses; 0 warms one pass over the pool.
	Warm int
}

// loadRate is the ingest writer's open-loop schedule in loads per
// second. A 30 s window schedules 1,020 loads, enough for a p99 with
// 10 samples beyond it.
const loadRate = 34

// loadPeriod is the writer's schedule spacing.
const loadPeriod = time.Second / loadRate

// readsPerLoad is how many reads the ingest reader sends after each
// load the writer completes. Every load invalidates the plans and the
// loaded table's statistics, so the work per read depends on how many
// reads share a catalog version; fixing the count makes it a property
// of the schedule, not of how fast the reader happens to run.
const readsPerLoad = 2

// scheduledLoads is the number of loads in a window of the given
// length. Every workload has the schedule: ingest sends it to certsqld
// in the window, and every traced run replays it against the storage
// layers.
func scheduledLoads(seconds float64) int { return int(loadRate * seconds) }

var workloads = []*Workload{
	{
		Name: "hot", SF: 0.005, Readers: 2,
		Pool: hotPool, Stream: passStream,
	},
	{
		Name: "zipf", SF: 0.0005, Readers: 2,
		Pool: zipfPool, Stream: zipfStream, Warm: 1000,
	},
	{
		Name: "ingest", SF: 0.001, Durable: true, Readers: 1,
		Pool: hotPool, Stream: passStream,
	},
}

func workloadByName(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want hot, zipf or ingest)", name)
}

// rngFor derives an independent generator for one purpose of a run.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// Generator purposes, so each stream of randomness is independent of
// how much the others draw.
const (
	purposePool   = 1
	purposeLoads  = 2
	purposeWarm   = 3
	purposeClient = 100 // + client index
)

// bindingDraws is how many candidate bindings per query the hot pool
// draws before keeping the typical ones.
const bindingDraws = 9

// distinctBindings draws n bindings of q with distinct fingerprints.
func distinctBindings(rng *rand.Rand, q tpch.QueryID, sz tpch.Sizes, n int) []compile.Params {
	seen := map[string]bool{}
	var out []compile.Params
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		p := q.Params(rng, sz)
		if fp := fingerprint(p); !seen[fp] {
			seen[fp] = true
			out = append(out, p)
		}
	}
	return out
}

// hotPool is 2 seeded bindings per query in both modes: 16 plans, far
// below the server's 256-entry plan cache. Of bindingDraws drawn per
// query it keeps the 2 most typical by selectivity, so the pool's
// cost does not swing with the seed.
func hotPool(seed int64, sz tpch.Sizes, data *table.Database) []Plan {
	rng := rngFor(seed, purposePool)
	sel := newSelectivity(data)
	var pool []Plan
	for _, q := range tpch.AllQueries {
		for _, p := range typical(distinctBindings(rng, q, sz, bindingDraws), sel.of(q))[:2] {
			for _, certain := range []bool{false, true} {
				pool = append(pool, Plan{Query: q, Certain: certain, Params: p, Text: statement(q, certain)})
			}
		}
	}
	return pool
}

// zipfPoolSize is the zipf pool's distinct plan count, ~16× the
// server's plan cache.
const zipfPoolSize = 4000

// zipfPool orders about 4,000 distinct plans by popularity rank. Ranks
// cycle through the 8 statement shapes in a fixed order, so every seed
// puts the same shape at each rank and only the bindings differ.
// Within a shape the most typical bindings by selectivity rank first,
// so the few plans that carry most of the traffic cost about the same
// under every seed. A
// shape whose bindings run out (Q1 has 25 nations, Q3 as many
// suppliers as the scale factor gives) drops out of the cycle.
func zipfPool(seed int64, sz tpch.Sizes, data *table.Database) []Plan {
	rng := rngFor(seed, purposePool)
	sel := newSelectivity(data)
	small := len(tpch.Nations) + sz.Suppliers // Q1 and Q3 bindings, all of them
	large := (zipfPoolSize/2 - small) / 2     // each of Q2 and Q4
	want := map[tpch.QueryID]int{tpch.Q1: len(tpch.Nations), tpch.Q2: large, tpch.Q3: sz.Suppliers, tpch.Q4: large}
	byShape := map[string][]Plan{}
	for _, q := range tpch.AllQueries {
		for _, p := range typical(distinctBindings(rng, q, sz, want[q]), sel.of(q)) {
			for _, certain := range []bool{false, true} {
				byShape[shapeName(q, certain)] = append(byShape[shapeName(q, certain)],
					Plan{Query: q, Certain: certain, Params: p, Text: statement(q, certain)})
			}
		}
	}
	var pool []Plan
	for left := true; left; {
		left = false
		for _, s := range shapes() {
			if plans := byShape[s]; len(plans) > 0 {
				pool = append(pool, plans[0])
				byShape[s] = plans[1:]
				left = true
			}
		}
	}
	return pool
}

// passStream sends the pool in a fresh seeded order on every pass, so
// any window holds each plan equally often, give or take one pass.
func passStream(rng *rand.Rand, pool []Plan) func() int {
	var order []int
	return func() int {
		if len(order) == 0 {
			order = rng.Perm(len(pool))
		}
		i := order[0]
		order = order[1:]
		return i
	}
}

// zipfS is the Zipf exponent of the zipf workload's rank distribution.
const zipfS = 1.1

// zipfStream draws plan ranks Zipf(s = 1.1).
func zipfStream(rng *rand.Rand, pool []Plan) func() int {
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
	return func() int { return int(z.Uint64()) }
}

// clientStream is read client c's request sequence.
func (w *Workload) clientStream(seed int64, c int, pool []Plan) func() int {
	return w.Stream(rngFor(seed, purposeClient+int64(c)), pool)
}

// warmup returns the plan indexes sent before timing: one pass over
// the pool, or Warm draws from the workload's own distribution under a
// generator no timed client uses.
func (w *Workload) warmup(seed int64, pool []Plan) []int {
	if w.Warm == 0 {
		out := make([]int, len(pool))
		for i := range out {
			out[i] = i
		}
		return out
	}
	next := w.Stream(rngFor(seed, purposeWarm), pool)
	out := make([]int, w.Warm)
	for i := range out {
		out[i] = next()
	}
	return out
}

// Load is one scheduled /v1/load: rows for one table.
type Load struct {
	Table string
	Rows  []table.Row
}

// genLoads builds the writer's schedule: batches of one new order
// followed by its lineitems, as two loads. Keys continue past the
// seed instance; nullable attributes are nulled at the seed's null
// rate with fresh marks that continue the instance's mark sequence.
func genLoads(seed int64, sz tpch.Sizes, base *table.Database, n int) []Load {
	rng := rngFor(seed, purposeLoads)
	marks := base.NextNullMark()
	nulls := func(rel string, row table.Row) table.Row {
		r, _ := base.Schema.Relation(rel)
		for i, a := range r.Attrs {
			if a.Nullable && rng.Float64() < nullRate {
				row[i] = value.Null(marks)
				marks++
			}
		}
		return row
	}
	orderKey := int64(base.MustTable("orders").Len())
	day0 := value.MustDate("1992-01-01").AsDate()
	pick := func(list []string) value.Value { return value.Str(list[rng.Intn(len(list))]) }
	var loads []Load
	for len(loads) < n {
		orderKey++
		date := day0 + int64(rng.Intn(2000))
		cust := int64(rng.Intn(sz.Customers) + 1)
		order := table.Row{
			value.Int(orderKey), value.Int(cust), pick([]string{"O", "F", "P"}),
			value.Float(float64(rng.Intn(50_000_000)) / 100), value.Date(date),
			pick(tpch.Priorities), value.Str(fmt.Sprintf("Clerk#%09d", rng.Intn(1000)+1)),
			value.Int(0), value.Str("benchmark load"),
		}
		loads = append(loads, Load{Table: "orders", Rows: []table.Row{nulls("orders", order)}})
		items := make([]table.Row, 1+rng.Intn(7))
		for i := range items {
			qty := int64(rng.Intn(50) + 1)
			ship := date + int64(rng.Intn(121)+1)
			items[i] = nulls("lineitem", table.Row{
				value.Int(orderKey), value.Int(int64(rng.Intn(sz.Parts) + 1)),
				value.Int(int64(rng.Intn(sz.Suppliers) + 1)), value.Int(int64(i + 1)),
				value.Int(qty), value.Float(float64(qty) * 1000), value.Float(float64(rng.Intn(11)) / 100),
				value.Float(float64(rng.Intn(9)) / 100), pick([]string{"N", "R", "A"}), pick([]string{"O", "F"}),
				value.Date(ship), value.Date(date + int64(rng.Intn(91)+30)), value.Date(ship + int64(rng.Intn(30)+1)),
				pick(tpch.ShipInstructs), pick(tpch.ShipModes), value.Str("benchmark load"),
			})
		}
		loads = append(loads, Load{Table: "lineitem", Rows: items})
	}
	return loads[:n]
}
