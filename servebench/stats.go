package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported
// percentile: a p99 needs at least 1,000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (sorted in
// place). It refuses a percentile that leaves fewer than minBeyond
// samples above it, so a tail figure always rests on a tail.
func percentile(xs []float64, p float64) (float64, error) {
	sort.Float64s(xs)
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", p*100, n, beyond, minBeyond)
	}
	return xs[rank-1], nil
}

// median returns the middle of xs (sorted in place), the mean of the
// two middle values for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// phases logs how long each step of a run took, to standard error.
type phases struct{ last time.Time }

func newPhases() *phases { return &phases{last: time.Now()} }

func (p *phases) done(name string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "  %-20s %6.2fs\n", name, now.Sub(p.last).Seconds())
	p.last = now
}

// perSecond counts completions in each whole second of the window.
// qps is the median of these counts, so a burst of contention from
// outside the benchmark moves it less than it moves the mean.
func perSecond(done []time.Duration, window time.Duration) []float64 {
	out := make([]float64, int(window.Seconds()))
	for _, d := range done {
		if i := int(d.Seconds()); i < len(out) {
			out[i]++
		}
	}
	return out
}

// cpuTicks reads the machine's total and stolen CPU time from
// /proc/stat, in clock ticks. Steal is time the hypervisor ran someone
// else on our CPUs; the report shows its share of the window, because
// it slows every figure and nothing in the benchmark can prevent it.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
