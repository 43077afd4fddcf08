package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"certsql/internal/server/api"
	"certsql/internal/server/client"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// A run starts certsqld at least setupStarts times, and for at least
// setupBudget, only to time its set-up, before the start that serves;
// setup_s is the median. A set-up of a few milliseconds thus gets
// about a hundred starts.
const (
	setupStarts = 15
	setupBudget = 2 * time.Second
)

// restarts is how many times an ingest run restarts certsqld after
// kill -9 on the same data directory; restart_s is the median.
const restarts = 7

// ingestCheckEvery spaces the ingest reads whose answers are checked:
// checking one costs as much as serving it (the in-process replay
// recompiles and re-collects statistics at every catalog version), so
// checking all of them would double the run.
const ingestCheckEvery = 32

// tally counts operations and their failures. A failure is a non-2xx,
// a transport error or a wrong answer; fivexx and wrong also fail the
// run as a whole.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	fivexx, wrong     int
	reasons           []string // the first few failures, for the report
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(what string, err error, wrong bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	var ae *api.Error
	if errors.As(err, &ae) && ae.Status >= 500 {
		t.fivexx++
	}
	if wrong {
		t.wrong++
	}
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, fmt.Sprintf("%s: %v", what, err))
	}
}

// checked counts n reads checked after the fact, wrong of them wrong.
func (t *tally) checked(n, wrong int, what string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	t.failed += wrong
	t.wrong += wrong
	if wrong > 0 && len(t.reasons) < 5 {
		t.reasons = append(t.reasons, fmt.Sprintf("%s (%d reads)", what, wrong))
	}
}

// e2e is what one untraced run measured.
type e2e struct {
	setupCPU    []float64       // s of certsqld CPU time per set-up start
	setupWall   []float64       // s of wall time per set-up start
	reads       []float64       // ms, verified reads in the window
	done        []time.Duration // when each of them completed, from the window's start
	window      time.Duration
	rss         float64   // MiB
	cpu         float64   // s of certsqld CPU time in the window
	loads       []float64 // ms from due time (ingest)
	late        []float64 // ms the writer started each load after its due time (ingest)
	restart     []float64 // s per restart after kill -9 (ingest)
	cacheHits   int
	cacheLookup int
	ops         tally
	lost        int     // acknowledged rows missing after restart
	steal       float64 // share of the machine's CPU time stolen during the window
}

// newHTTPClient allows at most two connections to the server.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// runE2E is the untraced run: certsqld as its own process, driven by
// this process over loopback.
func runE2E(ctx context.Context, w *Workload, seed int64, seconds float64, env *runEnv) (*e2e, error) {
	ph := newPhases()
	in := newInputs(w, seed, seconds)
	ph.done("inputs")
	want, err := expectedAnswers(in.base, in.pool, allPlans(in.pool))
	if err != nil {
		return nil, fmt.Errorf("expected answers: %w", err)
	}
	ph.done("expected answers")
	r := &e2e{}

	// Each durable start gets a fresh data directory: data0 for the
	// set-up starts, removed after each, and data1 for the one that
	// serves.
	args := func(dir int) []string {
		a := []string{"-sf", strconv.FormatFloat(w.SF, 'g', -1, 64), "-nullrate", strconv.FormatFloat(nullRate, 'g', -1, 64),
			"-seed", strconv.FormatInt(seed, 10)}
		if w.Durable {
			a = append(a, "-data-dir", filepath.Join(env.dir, fmt.Sprintf("data%d", dir)))
		}
		return a
	}
	// Set-up is timed on starts that do nothing else: each is killed at
	// its first 200, so its CPU time is the set-up's.
	t0 := time.Now()
	for i := 0; i < setupStarts || time.Since(t0) < setupBudget; i++ {
		p, err := startServer(ctx, env.certsqld, env.log, args(0)...)
		if err != nil {
			return nil, err
		}
		p.kill()
		r.setupWall = append(r.setupWall, p.Startup.Seconds())
		r.setupCPU = append(r.setupCPU, p.exitedCPU().Seconds())
		if err := os.RemoveAll(filepath.Join(env.dir, "data0")); err != nil {
			return nil, err
		}
	}
	srvArgs := args(1)
	srv, err := startServer(ctx, env.certsqld, env.log, srvArgs...)
	if err != nil {
		return nil, err
	}
	defer func() { srv.kill() }()
	ph.done("setup")

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	newClient := func() *client.Client { return client.New(srv.url, client.WithRetries(1), client.WithHTTPClient(hc)) }

	// Warm-up: untimed, but checked and counted.
	wc := newClient()
	for _, i := range w.warmup(seed, in.pool) {
		res, err := wc.Query(ctx, in.pool[i].Text, in.pool[i].Params, "", client.QueryOptions{})
		if err == nil && digest(res.Rows) == want[i] {
			r.ops.ok()
		} else if err == nil {
			r.ops.fail("warm-up "+in.pool[i].Shape(), errors.New("wrong answer"), true)
		} else {
			r.ops.fail("warm-up "+in.pool[i].Shape(), err, false)
		}
	}

	ph.done("warm-up")
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		versions []versionedRead
	)
	cpu0, err := srv.CPUSeconds()
	if err != nil {
		return nil, err
	}
	total0, steal0 := cpuTicks()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var loaded chan struct{} // one value per completed load, on ingest
	if w.Durable {
		loaded = make(chan struct{}, len(in.loads))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.loads, r.late = runWriter(ctx, newClient(), in.loads, start, &r.ops, loaded)
		}()
	}
	for c := 0; c < w.Readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			next := w.clientStream(seed, c, in.pool)
			pace := &pacer{deadline: deadline, loads: loaded}
			var lats []float64
			var done []time.Duration
			var seen []versionedRead
			var last uint64
			hits, lookups := 0, 0
			for pace.next() {
				i := next()
				t0 := time.Now()
				res, err := cl.Query(ctx, in.pool[i].Text, in.pool[i].Params, "", client.QueryOptions{})
				lat := time.Since(t0)
				if err != nil {
					r.ops.fail(in.pool[i].Shape(), err, false)
					continue
				}
				hits += res.Stats.PlanCacheHits
				lookups += res.Stats.PlanCacheHits + res.Stats.PlanCacheMisses
				got := digest(res.Rows)
				switch {
				case w.Durable && res.Version < last:
					r.ops.fail(in.pool[i].Shape(), fmt.Errorf("version went back from %d to %d", last, res.Version), true)
					continue
				case w.Durable:
					// Every ingestCheckEvery-th read is checked after the
					// window, against the version it read.
					last = res.Version
					if len(lats)%ingestCheckEvery == 0 {
						seen = append(seen, versionedRead{Plan: i, Version: res.Version, Got: got})
					}
				case got != want[i]:
					r.ops.fail(in.pool[i].Shape(), fmt.Errorf("wrong answer for %v", in.pool[i].Params), true)
					continue
				default:
					r.ops.ok()
				}
				lats = append(lats, ms(lat))
				done = append(done, time.Since(start))
			}
			mu.Lock()
			r.reads = append(r.reads, lats...)
			r.done = append(r.done, done...)
			versions = append(versions, seen...)
			r.cacheHits += hits
			r.cacheLookup += lookups
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	r.window = time.Since(start)
	if total1, steal1 := cpuTicks(); total1 > total0 {
		r.steal = (steal1 - steal0) / (total1 - total0)
	}
	cpu1, err := srv.CPUSeconds()
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0
	if r.rss, err = srv.PeakRSSMiB(); err != nil {
		return nil, err
	}
	ph.done("window")
	if !w.Durable {
		return r, nil
	}

	// Crash and recover, several times over the same data: recovery
	// writes nothing, so every restart replays the same log.
	for i := 0; i < restarts; i++ {
		srv.kill()
		hc.CloseIdleConnections()
		if srv, err = startServer(ctx, env.certsqld, env.log, srvArgs...); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		r.restart = append(r.restart, srv.Startup.Seconds())
	}
	if err := checkAfterRestart(ctx, newClient(), in, r); err != nil {
		return nil, err
	}
	ph.done("restart")

	wrong, err := checkVersioned(in.base, in.pool, in.loads, versions)
	if err != nil {
		return nil, fmt.Errorf("checking ingest reads: %w", err)
	}
	r.ops.checked(len(r.reads), wrong, "ingest read: wrong answer at its catalog version")
	r.reads = r.reads[:len(r.reads)-wrong] // qps counts verified reads only
	ph.done("ingest read checks")
	return r, nil
}

// pacer tells a read client when to send its next read. Without a
// writer it reads until the deadline. Beside one it sends readsPerLoad
// reads after each load the writer completes, and stops after the
// batch that follows the last load.
type pacer struct {
	deadline time.Time
	loads    <-chan struct{} // nil without a writer
	left     int             // reads left in the current batch
}

func (p *pacer) next() bool {
	if p.loads == nil {
		return time.Now().Before(p.deadline)
	}
	if p.left == 0 {
		if _, ok := <-p.loads; !ok {
			return false
		}
		p.left = readsPerLoad
	}
	p.left--
	return true
}

// inputs is everything a run derives from the seed.
type inputs struct {
	sz    tpch.Sizes
	base  *table.Database // the seed instance, as certsqld generates it
	pool  []Plan
	loads []Load
}

func newInputs(w *Workload, seed int64, seconds float64) *inputs {
	return inputsFrom(w, seed, seconds, tpch.Generate(tpch.Config{ScaleFactor: w.SF, Seed: seed, NullRate: nullRate}))
}

// inputsFrom derives the inputs from an already generated instance.
func inputsFrom(w *Workload, seed int64, seconds float64, base *table.Database) *inputs {
	in := &inputs{sz: tpch.Config{ScaleFactor: w.SF}.Sizes(), base: base}
	in.pool = w.Pool(seed, in.sz, in.base)
	in.loads = genLoads(seed, in.sz, in.base, scheduledLoads(seconds))
	return in
}

// runWriter posts loads open-loop on the fixed schedule from start,
// signals each completed load on loaded, and closes it at the end. It
// returns each load's latency measured from its due time and how late
// it was sent.
func runWriter(ctx context.Context, c *client.Client, loads []Load, start time.Time, ops *tally, loaded chan<- struct{}) (lat, late []float64) {
	defer close(loaded)
	for k, l := range loads {
		due := start.Add(time.Duration(k) * loadPeriod)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(due)))
		if _, err := c.Load(ctx, l.Table, l.Rows); err != nil {
			ops.fail("load "+l.Table, err, false)
		} else {
			lat = append(lat, ms(time.Since(due)))
			ops.ok()
		}
		loaded <- struct{}{}
	}
	return lat, late
}

// checkAfterRestart verifies the recovered ingest server: it must hold
// exactly the seed plus every acknowledged load.
func checkAfterRestart(ctx context.Context, c *client.Client, in *inputs, r *e2e) error {
	cat, err := c.Catalog(ctx)
	if err != nil {
		return fmt.Errorf("catalog after restart: %w", err)
	}
	// The writer's loads all succeeded or the run already failed;
	// every one was acknowledged.
	acked := map[string]int{}
	for _, l := range in.loads {
		acked[l.Table] += len(l.Rows)
	}
	if want := uint64(len(in.loads)) + 1; cat.Version != want {
		r.ops.fail("restart", fmt.Errorf("catalog version %d after restart, want %d", cat.Version, want), true)
	}
	for _, t := range cat.Tables {
		if n := in.base.MustTable(t.Name).Len() + acked[t.Name]; t.Rows != n {
			r.ops.fail("restart", fmt.Errorf("table %s has %d rows after restart, want %d", t.Name, t.Rows, n), true)
			r.lost += max(n-t.Rows, 0)
		}
	}
	// Every acknowledged row is back, value for value.
	seedOrders := int64(in.base.MustTable("orders").Len())
	for _, q := range []struct{ table, sql string }{
		{"orders", "SELECT * FROM orders WHERE o_orderkey > $k"},
		{"lineitem", "SELECT * FROM lineitem WHERE l_orderkey > $k"},
	} {
		var rows [][]value.Value
		for _, l := range in.loads {
			if l.Table == q.table {
				rows = append(rows, l.Rows...)
			}
		}
		res, err := c.Query(ctx, q.sql, map[string]any{"k": seedOrders}, "", client.QueryOptions{})
		if err != nil {
			r.ops.fail("restart "+q.table, err, false)
			continue
		}
		if digest(res.Rows) != digest(rows) {
			r.ops.fail("restart "+q.table, fmt.Errorf("%d loaded rows read back, %d acknowledged", len(res.Rows), len(rows)), true)
			r.lost += max(len(rows)-len(res.Rows), 0)
			continue
		}
		r.ops.ok()
	}
	return nil
}

// runEnv locates the binaries and the run's scratch directory.
type runEnv struct {
	certsqld string
	dir      string // per-run scratch: data directories, server log
	log      string
}

func newRunEnv(root, name string) (*runEnv, error) {
	dir, err := os.MkdirTemp(filepath.Join(root, "run"), name+"-")
	if err != nil {
		return nil, err
	}
	return &runEnv{certsqld: filepath.Join(root, "bin", "certsqld"), dir: dir, log: filepath.Join(dir, "certsqld.log")}, nil
}
