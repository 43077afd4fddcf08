package difftest

import (
	"flag"
	"runtime"
	"testing"
	"time"

	"certsql/internal/guard"
)

// chaosCases overrides the number of chaos cases (0 = automatic: the
// acceptance sweep of 500 normally, a smoke slice under -short). The
// `make chaos` target runs the full sweep under the race detector.
var chaosCases = flag.Int("chaos-cases", 0, "number of chaos-mode cases (0 = 500, or 60 with -short)")

// chaosSweepCases is the size of the acceptance sweep.
const chaosSweepCases = 500

// TestChaosSweep is chaos mode: every seeded qgen case is replayed
// under three distinct injected faults (errors and panics at seeded
// sites), one random-point cancellation, and one budget-degradation
// probe. It asserts the pipeline's failure semantics — no panic escapes
// the public API, partial results are never passed off as complete,
// degradation is sound, the database answers correctly on retry — and,
// at suite level, that every entry of guard.Sites fired at least once
// and the goroutine count returns to baseline.
func TestChaosSweep(t *testing.T) {
	cases := *chaosCases
	if cases == 0 {
		cases = chaosSweepCases
		if testing.Short() {
			cases = 60
		}
	}
	baseGoroutines := runtime.NumGoroutine()

	sum := ChaosRun(1, cases, 0, Options{}, nil)
	t.Log("\n" + sum.Summary())

	for _, rep := range sum.Failures {
		t.Error("\n" + rep.Summary())
	}
	// The sweep must actually exercise the machinery it claims to: on
	// 60+ seeded cases a dead injector or never-landing cancellation is
	// a harness bug, not bad luck.
	if sum.Skipped >= sum.Cases {
		t.Fatalf("all %d cases skipped", sum.Cases)
	}
	if sum.FaultsFired == 0 {
		t.Error("no injected fault ever fired")
	}
	if sum.CancelsFired == 0 {
		t.Error("no random-point cancellation ever landed mid-flight")
	}
	if sum.Degraded == 0 {
		t.Error("the degradation ladder never engaged")
	}
	// Every engine fault site must stay reachable: a site the full
	// sweep never fires is an untested failure path. Smaller slices are
	// too few to land the rarer sites (hash-build needs a keyed join).
	if sum.Cases >= chaosSweepCases {
		for _, site := range guard.Sites {
			if sum.SitesFired[site] == 0 {
				t.Errorf("fault site %s never fired in %d cases", site, sum.Cases)
			}
		}
	}

	// Suite-level goroutine baseline: disturbed evaluations must not
	// leak workers. Allow the runtime a moment to reap finished ones.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after chaos sweep: %d goroutines, baseline %d",
				runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
