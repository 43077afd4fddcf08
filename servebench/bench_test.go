package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"certsql/internal/plancache"
	"certsql/internal/tpch"
)

func testInputs(t *testing.T, name string, seed int64) *inputs {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return newInputs(w, seed, 30)
}

// draw takes the first n plan indexes of client c's stream.
func draw(w *Workload, seed int64, c int, pool []Plan, n int) []int {
	next := w.clientStream(seed, c, pool)
	out := make([]int, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := testInputs(t, w.Name, 7), testInputs(t, w.Name, 7)
			if !reflect.DeepEqual(a.pool, b.pool) {
				t.Fatal("same seed, different pools")
			}
			if !reflect.DeepEqual(a.loads, b.loads) {
				t.Fatal("same seed, different load schedules")
			}
			for c := 0; c < w.Readers; c++ {
				if !reflect.DeepEqual(draw(w, 7, c, a.pool, 500), draw(w, 7, c, b.pool, 500)) {
					t.Fatalf("same seed, client %d streams differ", c)
				}
			}
			if !reflect.DeepEqual(w.warmup(7, a.pool), w.warmup(7, b.pool)) {
				t.Fatal("same seed, different warm-ups")
			}
			other := testInputs(t, w.Name, 8)
			if reflect.DeepEqual(draw(w, 7, 0, a.pool, 500), draw(w, 8, 0, other.pool, 500)) &&
				reflect.DeepEqual(a.loads, other.loads) {
				t.Fatal("different seeds give the same inputs")
			}
		})
	}
}

// distinctPlans counts the plans the server's cache would key apart.
func distinctPlans(pool []Plan) int {
	seen := map[string]bool{}
	for _, p := range pool {
		seen[p.Text+"\x00"+fingerprint(p.Params)] = true
	}
	return len(seen)
}

func TestWorkingSetsAgainstThePlanCache(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		hot := testInputs(t, "hot", seed).pool
		if n := distinctPlans(hot); n != 16 || n > plancache.DefaultSize {
			t.Errorf("seed %d: hot has %d distinct plans, want 16 (cache holds %d)", seed, n, plancache.DefaultSize)
		}
		zipf := testInputs(t, "zipf", seed).pool
		if n := distinctPlans(zipf); n < 10*plancache.DefaultSize {
			t.Errorf("seed %d: zipf has %d distinct plans, want at least %d", seed, n, 10*plancache.DefaultSize)
		}
		// Every rank holds the same statement shape under every seed.
		if seed > 1 {
			first := testInputs(t, "zipf", 1).pool
			for i := range zipf {
				if zipf[i].Shape() != first[i].Shape() {
					t.Fatalf("seed %d: rank %d is %s, seed 1 has %s", seed, i, zipf[i].Shape(), first[i].Shape())
				}
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: percentile must sort
		}
		return out
	}
	if _, err := percentile(xs(999), 0.99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it; want an error")
	}
	got, err := percentile(xs(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got, err := percentile(xs(20), 0.5); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
	if _, err := percentile(xs(19), 0.5); err == nil {
		t.Error("p50 of 19 samples leaves 9 beyond it; want an error")
	}
	if v := p99(xs(999)); !math.IsNaN(v) {
		t.Errorf("reported p99 of 999 samples = %v, want NaN (unavailable)", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// Beside a writer, the reader sends readsPerLoad reads per completed
// load, however fast it runs, and stops after the last load's batch.
func TestPacerFollowsTheWriter(t *testing.T) {
	loaded := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		loaded <- struct{}{}
	}
	close(loaded)
	pace := &pacer{deadline: time.Now().Add(time.Hour), loads: loaded}
	n := 0
	for pace.next() {
		n++
	}
	if n != 3*readsPerLoad {
		t.Errorf("%d reads for 3 loads, want %d", n, 3*readsPerLoad)
	}
	if (&pacer{deadline: time.Now()}).next() {
		t.Error("without a writer, a reader past its deadline read again")
	}
}

func TestSelfTimeOnAHandBuiltTree(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{ID: 1, Name: "root", Start: us(0), End: us(100)},
		// Two overlapping children cover [10, 50); a third runs past the
		// root's end and covers only [90, 100) of it.
		{ID: 2, Parent: 1, Name: "a", Start: us(10), End: us(30)},
		{ID: 3, Parent: 1, Name: "b", Start: us(20), End: us(50)},
		{ID: 4, Parent: 1, Name: "c", Start: us(90), End: us(120)},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Name: "d", Start: us(25), End: us(35)},
		{ID: 6, Parent: 3, Name: "d", Start: us(40), End: us(45)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: us(50), 2: us(20), 3: us(15), 4: us(30), 5: us(10), 6: us(5)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	lt := sumByName(spans)
	if lt.self["d"] != us(15) || lt.count["d"] != 2 || lt.total["b"] != us(30) {
		t.Errorf("sums by name: self d %v (want 15µs), count d %d (want 2), total b %v (want 30µs)",
			lt.self["d"], lt.count["d"], lt.total["b"])
	}
}

// The pipeline must keep following the facade: its answers on the hot
// pool equal the facade's.
func TestPipelineAnswersEqualTheFacade(t *testing.T) {
	w, _ := workloadByName("hot")
	base := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 3, NullRate: nullRate})
	in := inputsFrom(w, 3, 30, base)
	want, err := expectedAnswers(in.base, in.pool, allPlans(in.pool))
	if err != nil {
		t.Fatal(err)
	}
	p := newPipeline(newTracer(), in.base)
	for pass := 0; pass < 2; pass++ { // misses, then hits
		for i, pl := range in.pool {
			got, err := p.serve(context.Background(), 1, pl)
			if err != nil {
				t.Fatalf("%s: %v", pl.Shape(), err)
			}
			if got.got != want[i] {
				t.Errorf("pass %d, %s %v: pipeline answer differs from the facade's", pass, pl.Shape(), pl.Params)
			}
		}
	}
	if st := p.plans.Stats(); st.Hits != uint64(len(in.pool)) || st.Misses != uint64(len(in.pool)) {
		t.Errorf("plan cache: %d hits, %d misses; want %d of each", st.Hits, st.Misses, len(in.pool))
	}
	// After loads, answers follow the new version.
	if err := p.load(in.loads[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.load(in.loads[1]); err != nil {
		t.Fatal(err)
	}
	reads := make([]versionedRead, len(in.pool))
	for i, pl := range in.pool {
		got, err := p.serve(context.Background(), 4, pl)
		if err != nil {
			t.Fatal(err)
		}
		reads[i] = versionedRead{Plan: i, Version: got.version, Got: got.got}
	}
	if wrong, err := checkVersioned(in.base, in.pool, in.loads, reads); err != nil || wrong != 0 {
		t.Errorf("after two loads: %d wrong answers, err %v", wrong, err)
	}
}
