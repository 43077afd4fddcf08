package difftest

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"certsql/internal/guard"
)

// ChaosSummary aggregates a batch of seed-driven chaos runs.
type ChaosSummary struct {
	// Cases is the number of cases replayed; Skipped how many were not
	// chaos-checked (their clean baseline already exceeds the budget).
	Cases   int
	Skipped int
	// Failed counts cases with at least one broken failure-semantics
	// invariant; Failures holds their reports (up to MaxFailures).
	Failed   int
	Failures []*ChaosReport
	// FaultRuns is the total number of fault-injected runs executed;
	// FaultsFired how many of them actually hit their planned fault.
	FaultRuns   int
	FaultsFired int
	// CancelsFired counts cases whose random-point cancellation landed
	// mid-flight; Degraded those where the degradation ladder engaged.
	CancelsFired int
	Degraded     int
	// SitesFired counts fired faults per fault site over all cases, so
	// a sweep can show that every entry of guard.Sites is reachable.
	SitesFired map[guard.Site]int
}

// Summary renders the aggregate for logs.
func (s ChaosSummary) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d cases (%d skipped), %d fault runs (%d fired), %d cancels landed, %d degraded\n",
		s.Cases, s.Skipped, s.FaultRuns, s.FaultsFired, s.CancelsFired, s.Degraded)
	b.WriteString("chaos: faults fired per site:")
	for _, site := range guard.Sites {
		fmt.Fprintf(&b, " %s=%d", site, s.SitesFired[site])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "chaos: %d case(s) violated failure-semantics invariants\n", s.Failed)
	return b.String()
}

// ChaosRun replays the seeds start … start+cases-1 in chaos mode over
// the given number of workers (0 = GOMAXPROCS). Each case is
// independent and fully seed-determined, so the summary does not depend
// on the worker count. The optional progress callback receives each
// finished report (serialized).
func ChaosRun(start uint64, cases, workers int, opts Options, progress func(*ChaosReport)) ChaosSummary {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sum := ChaosSummary{Cases: cases, SitesFired: map[guard.Site]int{}}
	reports := make([]*ChaosReport, cases)
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= cases {
					return
				}
				rep := ChaosSeed(start+uint64(i), opts)
				mu.Lock()
				reports[i] = rep
				if progress != nil {
					progress(rep)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, rep := range reports {
		if rep.Skipped != "" {
			sum.Skipped++
		}
		if rep.Failed() {
			sum.Failed++
			if len(sum.Failures) < MaxFailures {
				sum.Failures = append(sum.Failures, rep)
			}
		}
		sum.FaultRuns += rep.FaultRuns
		sum.FaultsFired += rep.FaultsFired
		if rep.CancelFired {
			sum.CancelsFired++
		}
		if rep.Degraded {
			sum.Degraded++
		}
		for site, n := range rep.SitesFired {
			sum.SitesFired[site] += n
		}
	}
	return sum
}
