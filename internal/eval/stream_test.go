package eval_test

import (
	"errors"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
	"certsql/internal/table"
	"certsql/internal/value"
)

// sharedSel builds Union{sel, sel} — the smallest plan with a shared
// subtree, so the WITH-view cache and its memory accounting engage.
func sharedSel() algebra.Expr {
	sel := algebra.Select{Child: baseR, Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Lit{Val: value.Int(1)}}}
	return algebra.Union{L: sel, R: sel}
}

// TestGovernorLimitsEnforced checks that the row and cost budgets
// configured on the Governor are the ones an evaluation enforces.
func TestGovernorLimitsEnforced(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r",
		table.Row{value.Int(1), value.Int(1)},
		table.Row{value.Int(2), value.Int(1)},
		table.Row{value.Int(3), value.Int(1)},
	)
	if _, err := eval.New(db, eval.Options{Governor: guard.Background(guard.Limits{})}).Eval(baseR); err != nil {
		t.Errorf("default limits: %v", err)
	}
	_, err := eval.New(db, eval.Options{Governor: guard.Background(guard.Limits{MaxRows: 2})}).Eval(baseR)
	if !errors.Is(err, guard.ErrRowBudget) {
		t.Errorf("MaxRows=2 over a 3-row scan: got %v, want ErrRowBudget", err)
	}
	sel := algebra.Select{Child: baseR, Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Lit{Val: value.Int(1)}}}
	_, err = eval.New(db, eval.Options{Governor: guard.Background(guard.Limits{MaxCostUnits: 1})}).Eval(sel)
	if !errors.Is(err, eval.ErrTooLarge) {
		t.Errorf("MaxCostUnits=1: got %v, want a budget error", err)
	}
}

// TestViewCacheChargeLifetime pins the cache-seam accounting bugfix:
// a view-cached table's memory charge must live exactly as long as the
// cached table does — not released when the operator that built it
// finishes (under-charge), and not charged again when a later
// occurrence or a later Eval hits the cache (double-charge).
func TestViewCacheChargeLifetime(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})
	e := sharedSel()

	// Cache off: the whole plan is one pipeline; when Eval returns the
	// only live charge is the root result — every intermediate charge
	// was released at its frame's exit.
	gov := guard.Background(guard.Limits{})
	ev := eval.New(db, eval.Options{Governor: gov, NoSubplanCache: true})
	res, err := ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gov.MemCharged(), res.EstimatedBytes(); got != want {
		t.Errorf("cache off: live charge = %d, want root result only (%d)", got, want)
	}

	// Cache on: the pinned view keeps its charge alive past the frame
	// that built it...
	gov = guard.Background(guard.Limits{})
	ev = eval.New(db, eval.Options{Governor: gov})
	res, err = ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stats().CacheHits == 0 {
		t.Fatal("shared subplan not cached")
	}
	c1 := gov.MemCharged()
	if c1 <= res.EstimatedBytes() {
		t.Errorf("cache on: live charge %d should exceed the root result %d (the pinned view's charge must persist)",
			c1, res.EstimatedBytes())
	}
	// ...and serving the same expression again from the cache charges
	// nothing new: the table was charged exactly once, when built.
	res2, err := ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Error("second Eval should serve the cached root table")
	}
	if c2 := gov.MemCharged(); c2 != c1 {
		t.Errorf("cache hit changed the live charge: %d -> %d (want unchanged)", c1, c2)
	}
}

// TestViewPublicationFaultLeavesNoEntry pins the poisoning bugfix: a
// failure at the view-materialization site happens before publication,
// so the cache never holds a partially built entry — a retry recomputes
// the view and answers correctly.
func TestViewPublicationFaultLeavesNoEntry(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})
	e := sharedSel()

	gov := guard.Background(guard.Limits{})
	inj := faultinject.New(faultinject.Fault{Site: guard.SiteViewMaterialize, Kind: faultinject.KindError, HitNumber: 1})
	gov.SetFaultHook(inj)
	ev := eval.New(db, eval.Options{Governor: gov})
	if _, err := ev.Eval(e); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected publication fault surfaced as %v", err)
	}
	if inj.Fired() != 1 {
		t.Fatalf("fault fired %d times, want 1", inj.Fired())
	}
	if ev.Stats().CacheHits != 0 {
		t.Errorf("failed run recorded %d cache hits, want 0", ev.Stats().CacheHits)
	}
	// The retry (fault exhausted) must recompute from scratch and give
	// the right answer; a leftover partial entry would corrupt it.
	res, err := ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("retry after publication fault: %v", res.SortedStrings())
	}
}

// TestPanicPoisonsEvaluatorNotDatabase pins panic containment around
// the cache seams: an injected panic at the view-materialization site
// surfaces as *guard.InternalError, poisons that evaluator for good,
// and leaves the database fully usable by a fresh one.
func TestPanicPoisonsEvaluatorNotDatabase(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})
	e := sharedSel()

	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(faultinject.New(faultinject.Fault{Site: guard.SiteViewMaterialize, Kind: faultinject.KindPanic, HitNumber: 1}))
	ev := eval.New(db, eval.Options{Governor: gov})
	_, err := ev.Eval(e)
	var ie *guard.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("injected panic surfaced as %v, want *guard.InternalError", err)
	}
	if _, err := ev.Eval(e); !errors.Is(err, eval.ErrPoisoned) {
		t.Errorf("poisoned evaluator accepted another Eval: %v", err)
	}
	res, err := eval.New(db, eval.Options{Governor: guard.Background(guard.Limits{})}).Eval(e)
	if err != nil {
		t.Fatalf("fresh evaluator on the same database: %v", err)
	}
	if res.Len() != 1 {
		t.Errorf("fresh evaluator result: %v", res.SortedStrings())
	}
}

// TestBatchPullFaults covers the streaming engine's per-batch fault
// site: an error injected at a batch pull surfaces typed, a panic is
// contained as *guard.InternalError.
func TestBatchPullFaults(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})

	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(faultinject.New(faultinject.Fault{Site: guard.SiteBatchPull, Kind: faultinject.KindError, HitNumber: 1}))
	if _, err := eval.New(db, eval.Options{Governor: gov}).Eval(baseR); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("batch-pull error fault surfaced as %v", err)
	}

	gov = guard.Background(guard.Limits{})
	gov.SetFaultHook(faultinject.New(faultinject.Fault{Site: guard.SiteBatchPull, Kind: faultinject.KindPanic, HitNumber: 1}))
	ev := eval.New(db, eval.Options{Governor: gov})
	_, err := ev.Eval(baseR)
	var ie *guard.InternalError
	if !errors.As(err, &ie) {
		t.Errorf("batch-pull panic fault surfaced as %v, want *guard.InternalError", err)
	}
	if _, err := ev.Eval(baseR); !errors.Is(err, eval.ErrPoisoned) {
		t.Errorf("evaluator not poisoned after contained panic: %v", err)
	}
}

// TestEnginesRenderIdenticalBytes spot-checks the engine contract the
// difftest ablation sweeps at scale: streaming and materializing
// evaluation render the exact same bytes, row order included.
func TestEnginesRenderIdenticalBytes(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r",
		table.Row{value.Int(1), value.Int(1)},
		table.Row{db.FreshNull(), value.Int(2)},
		table.Row{value.Int(2), value.Int(2)},
		table.Row{value.Int(2), value.Int(2)},
	)
	ins(t, db, "s",
		table.Row{value.Int(2), value.Int(1)},
		table.Row{db.FreshNull(), value.Int(3)},
	)
	join := algebra.Select{
		Child: algebra.Product{L: baseR, R: baseS},
		Cond:  algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
	}
	for name, e := range map[string]algebra.Expr{
		"scan":       baseR,
		"distinct":   algebra.Distinct{Child: baseR},
		"shared-sel": sharedSel(),
		"semijoin":   algebra.SemiJoin{L: baseR, R: baseS, Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}}},
		"join-block": join,
		"project":    algebra.Project{Child: join, Cols: []int{1, 3}},
	} {
		stream := run(t, db, e, eval.Options{Semantics: value.SQL3VL, Parallelism: 1})
		mat := run(t, db, e, eval.Options{Semantics: value.SQL3VL, Parallelism: 1, Materialize: true})
		if stream.String() != mat.String() {
			t.Errorf("%s: engines differ\nstreaming:     %s\nmaterializing: %s", name, stream.String(), mat.String())
		}
	}
}
