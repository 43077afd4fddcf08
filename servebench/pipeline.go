package main

import (
	"context"
	"encoding/json"
	"fmt"

	"certsql/internal/algebra"
	"certsql/internal/analyze"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/plan"
	"certsql/internal/plancache"
	"certsql/internal/server/api"
	"certsql/internal/sql"
	"certsql/internal/stats"
	"certsql/internal/table"
	"certsql/internal/value"
)

// serverMemBudget is certsqld's default -max-mem, which the pipeline's
// governor mirrors.
const serverMemBudget = 256 << 20

// pipeline serves a request by calling each module's public function
// in the order the certsql facade's Prepare/Execute path does, with a
// span around each call. Its answers must equal the server's; a
// mismatch means the pipeline no longer follows the program.
type pipeline struct {
	tr    *tracer
	store *table.Store
	plans *plancache.Cache
	stats *stats.Collector
	// window is the plan cache's traffic during the timed replay.
	window plancacheDelta
}

type plancacheDelta struct{ hits, misses, evictions uint64 }

func newPipeline(tr *tracer, db *table.Database) *pipeline {
	return &pipeline{tr: tr, store: table.NewStore(db), plans: plancache.New(0), stats: stats.NewCollector()}
}

// served is what the pipeline learned about one request.
type served struct {
	got     answer
	version uint64
	eval    eval.Stats
}

// serve runs one read request.
func (p *pipeline) serve(ctx context.Context, req int64, pl Plan) (*served, error) {
	root := p.tr.begin(req, 0, "pipeline.request")
	defer root.end()
	snap := p.store.Snapshot()
	db := snap.DB
	gov := guard.New(ctx, guard.Limits{MaxMemBytes: serverMemBudget})

	// Prepare: one parse and canonical render.
	s := p.tr.begin(req, root.id(), "sql.parse")
	q, err := sql.Parse(pl.Text)
	s.end()
	if err != nil {
		return nil, err
	}
	key := plancache.Key{SQL: q.SQL(), CatalogVersion: snap.Version, Params: fingerprint(pl.Params), Options: "0000"}

	s = p.tr.begin(req, root.id(), "plancache.get")
	cp, hit := p.plans.Get(key)
	s.end()
	if !hit {
		if cp, err = p.compile(req, root.id(), gov, db, key.SQL, pl); err != nil {
			return nil, err
		}
		p.plans.Put(key, cp)
	}

	// Execute: pick the variant the facade would, then evaluate.
	expr, shape, opt := cp.Orig, cp.OrigShape, cp.OrigOpt
	if cp.Mode == plancache.ModeCertain && !(cp.AnalyzerSafe && db.ConformsNonNull()) {
		expr, shape, opt = cp.Plus, cp.PlusShape, cp.PlusOpt
	}
	var hints *eval.PlanHints
	if opt != nil {
		ok := len(opt.Premises) == 0
		if !ok {
			st, err := p.collect(req, root.id(), gov, db)
			if err != nil {
				return nil, err
			}
			ok = plan.CheckPremises(opt.Premises, st)
		}
		if ok {
			expr, shape, hints = opt.Expr, opt.Shape, opt.Hints
		}
	}
	s = p.tr.begin(req, root.id(), "eval."+pl.Shape())
	ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Governor: gov, Parallelism: 1, Shape: shape, Hints: hints})
	t, err := ev.Eval(expr)
	s.end()
	if err != nil {
		return nil, err
	}
	rows := t.Rows()

	s = p.tr.begin(req, root.id(), "api.encode")
	_, err = json.Marshal(&api.QueryResponse{Columns: cp.Columns, Rows: api.EncodeRows(rows), Version: snap.Version})
	s.end()
	if err != nil {
		return nil, err
	}
	return &served{got: digest(rows), version: snap.Version, eval: ev.Stats()}, nil
}

// compile is the plan-cache miss path: parse, compile, static
// analysis, the Q⁺ translation, and the planner over each variant.
func (p *pipeline) compile(req, parent int64, gov *guard.Governor, db *table.Database, text string, pl Plan) (*plancache.Plan, error) {
	s := p.tr.begin(req, parent, "sql.parse")
	q, err := sql.Parse(text)
	s.end()
	if err != nil {
		return nil, err
	}
	if sel, ok := q.Body.(*sql.SelectStmt); ok {
		sel.Certain = false // the compiler does not know the mode keyword
	}
	s = p.tr.begin(req, parent, "compile.compile")
	c, err := compile.Compile(q, db.Schema, pl.Params)
	s.end()
	if err != nil {
		return nil, err
	}
	cp := &plancache.Plan{Columns: c.Columns, Orig: c.Expr, OrigShape: eval.ShapeOf(c.Expr), Mode: plancache.ModeStandard}
	if cp.OrigOpt, err = p.optimize(req, parent, gov, db, c.Expr); err != nil {
		return nil, err
	}
	if !pl.Certain {
		return cp, nil
	}
	cp.Mode = plancache.ModeCertain
	s = p.tr.begin(req, parent, "certain.check")
	err = certain.CheckTranslatable(c.Expr)
	s.end()
	if err != nil {
		return nil, err
	}
	s = p.tr.begin(req, parent, "analyze.plan")
	cp.AnalyzerSafe = analyze.Plan(c.Expr, db.Schema).Safe
	s.end()
	tr := &certain.Translator{Sch: db.Schema, Mode: certain.ModeSQL, SimplifyNulls: true, SplitOrs: true, KeySimplify: true}
	s = p.tr.begin(req, parent, "certain.plus")
	cp.Plus = tr.Plus(c.Expr)
	s.end()
	cp.PlusShape = eval.ShapeOf(cp.Plus)
	if cp.PlusOpt, err = p.optimize(req, parent, gov, db, cp.Plus); err != nil {
		return nil, err
	}
	return cp, nil
}

// optimize runs the cost-based planner over one variant, returning
// nil when it neither rewrote the expression nor produced hints.
func (p *pipeline) optimize(req, parent int64, gov *guard.Governor, db *table.Database, e algebra.Expr) (*plancache.Optimized, error) {
	st, err := p.collect(req, parent, gov, db)
	if err != nil {
		return nil, err
	}
	s := p.tr.begin(req, parent, "plan.optimize")
	pr, err := plan.Optimize(e, db.Schema, st, gov)
	s.end()
	if err != nil {
		return nil, err
	}
	if !pr.Changed && pr.Hints == nil {
		return nil, nil
	}
	s = p.tr.begin(req, parent, "plan.optimize")
	defer s.end()
	return &plancache.Optimized{Expr: pr.Expr, Shape: eval.ShapeOf(pr.Expr), Hints: pr.Hints,
		Premises: pr.Premises, Explain: pr.ExplainText()}, nil
}

func (p *pipeline) collect(req, parent int64, gov *guard.Governor, db *table.Database) (*stats.DBStats, error) {
	s := p.tr.begin(req, parent, "stats.collect")
	defer s.end()
	return p.stats.CollectGoverned(gov, db)
}

// load applies one load through table.Store.Update, as certsqld's
// in-memory catalog does. The storage replay times Update; here it only
// moves the pipeline to the next catalog version.
func (p *pipeline) load(l Load) error {
	if _, err := p.store.Update(func(db *table.Database) error { return applyLoad(db, l) }); err != nil {
		return fmt.Errorf("load %s: %w", l.Table, err)
	}
	return nil
}
