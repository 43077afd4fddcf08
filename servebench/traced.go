package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/persist"
	"certsql/internal/server"
	"certsql/internal/server/client"
	"certsql/internal/table"
	"certsql/internal/tpch"
)

// Headers that carry the client's span to the wrapped handler. The
// server ignores headers it does not know.
const (
	hdrReq  = "X-Servebench-Req"
	hdrSpan = "X-Servebench-Span"
)

// replayed is what one replay of the request stream did.
type replayed struct {
	reads   int
	elapsed time.Duration
	checks  []versionedRead // ingest reads to check after the replay
	evals   map[int]eval.Stats
}

func (r *replayed) qps() float64 { return float64(r.reads) / r.elapsed.Seconds() }

// replay drives w's stream for d: the read clients' requests in turn,
// and on ingest the writer on its schedule, with the reads paced to it
// as in the untraced run. serve answers client c's request for plan i;
// load applies load k. Answers are checked as in the untraced run:
// against want on hot and zipf, by version afterwards on ingest.
func replay(w *Workload, seed int64, in *inputs, want []answer, d time.Duration, ops *tally,
	serve func(c, i int) (answer, uint64, *eval.Stats, error), load func(k int, l Load) error) *replayed {
	r := &replayed{evals: map[int]eval.Stats{}}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	var loaded chan struct{} // one value per completed load, on ingest
	if w.Durable {
		loads := in.loads[:scheduledLoads(d.Seconds())]
		loaded = make(chan struct{}, len(loads))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(loaded)
			for k, l := range loads {
				time.Sleep(time.Until(start.Add(time.Duration(k) * loadPeriod)))
				if err := load(k, l); err != nil {
					ops.fail("load", err, false)
				} else {
					ops.ok()
				}
				loaded <- struct{}{}
			}
		}()
	}
	// One reader at a time, taking the clients' streams in turn: the
	// per-layer times then carry no contention between readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := make([]func() int, w.Readers)
		for c := range next {
			next[c] = w.clientStream(seed, c, in.pool)
		}
		pace := &pacer{deadline: deadline, loads: loaded}
		var last uint64
		for n := 0; pace.next(); n++ {
			c := n % w.Readers
			i := next[c]()
			got, version, st, err := serve(c, i)
			switch {
			case err != nil:
				ops.fail(in.pool[i].Shape(), err, false)
				continue
			case w.Durable && version < last:
				ops.fail(in.pool[i].Shape(), fmt.Errorf("version went back from %d to %d", last, version), true)
				continue
			case w.Durable:
				last = version
				if n%ingestCheckEvery == 0 {
					r.checks = append(r.checks, versionedRead{Plan: i, Version: version, Got: got})
				}
			case got != want[i]:
				ops.fail(in.pool[i].Shape(), fmt.Errorf("wrong answer for %v", in.pool[i].Params), true)
				continue
			default:
				ops.ok()
			}
			r.reads++
			if _, seen := r.evals[i]; st != nil && !seen {
				r.evals[i] = *st
			}
		}
	}()
	wg.Wait()
	r.elapsed = time.Since(start)
	return r
}

// spanCtx carries a client call's request and span ids to the
// transport.
type spanCtx struct{}

type spanIDs struct{ req, span int64 }

// tracedTransport records the HTTP round trip, body included, and
// passes the span ids on to the server's wrapped handler.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ids, _ := r.Context().Value(spanCtx{}).(spanIDs)
	name := "http.roundtrip"
	if strings.HasSuffix(r.URL.Path, "/load") {
		name = "http.load_roundtrip"
	}
	s := t.tr.begin(ids.req, ids.span, name)
	defer s.end()
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatInt(ids.req, 10))
	r.Header.Set(hdrSpan, strconv.FormatInt(s.id(), 10))
	res, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, err
	}
	res.Body = io.NopCloser(bytes.NewReader(body))
	return res, nil
}

// tracedHandler records the server's handling of each request.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		name := "server.handler"
		if r.URL.Path == "/v1/load" {
			name = "server.load_handler"
		}
		s := tr.begin(req, parent, name)
		h.ServeHTTP(w, r)
		s.end()
	})
}

// inProcess is an in-process certsqld configured as the binary's
// defaults configure it, behind a loopback listener.
type inProcess struct {
	url   string
	hs    *http.Server
	done  chan struct{}
	store *persist.Store
}

func startInProcess(base *table.Database, durableDir string, tr *tracer) (*inProcess, error) {
	cfg := server.Config{
		Seed:           base,
		MaxConcurrent:  4,
		DefaultLimits:  guard.Limits{MaxMemBytes: serverMemBudget},
		DefaultTimeout: 30 * time.Second,
		Parallelism:    1,
		Shards:         1,
	}
	p := &inProcess{done: make(chan struct{})}
	if durableDir != "" {
		st, err := persist.Open(durableDir, func() (*table.Database, error) { return base.Clone(), nil }, persist.Options{})
		if err != nil {
			return nil, err
		}
		p.store, cfg.Durable = st, st
	}
	var h http.Handler = server.New(cfg).Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.url = "http://" + ln.Addr().String()
	p.hs = &http.Server{Handler: h}
	go func() {
		defer close(p.done)
		_ = p.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return p, nil
}

func (p *inProcess) close() error {
	err := p.hs.Close()
	<-p.done
	if p.store != nil {
		err = errors.Join(err, p.store.Close())
	}
	return err
}

// replayHandler replays the stream through an in-process server; with
// a tracer it records client, round-trip and handler spans.
func replayHandler(ctx context.Context, w *Workload, seed int64, in *inputs, want []answer, d time.Duration,
	tr *tracer, dir string, ops *tally) (*replayed, error) {
	durable := ""
	if w.Durable {
		durable = dir
	}
	srv, err := startInProcess(in.base, durable, tr)
	if err != nil {
		return nil, err
	}
	r, err := driveInProcess(ctx, w, seed, in, want, d, tr, srv, ops)
	if cerr := srv.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the in-process server: %w", cerr)
	}
	return r, err
}

// driveInProcess warms and replays the stream against srv.
func driveInProcess(ctx context.Context, w *Workload, seed int64, in *inputs, want []answer, d time.Duration,
	tr *tracer, srv *inProcess, ops *tally) (*replayed, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	if tr != nil {
		hc.Transport = &tracedTransport{base: hc.Transport, tr: tr}
	}
	clients := make([]*client.Client, w.Readers+1) // the last one writes
	for i := range clients {
		clients[i] = client.New(srv.url, client.WithRetries(1), client.WithHTTPClient(hc))
	}
	call := func(name string) (open, context.Context) {
		req := tr.nextReq()
		s := tr.begin(req, 0, name)
		return s, context.WithValue(ctx, spanCtx{}, spanIDs{req: req, span: s.id()})
	}
	// Warm as the untraced run does, so both replays time a warm cache.
	for _, i := range w.warmup(seed, in.pool) {
		if _, err := clients[0].Query(ctx, in.pool[i].Text, in.pool[i].Params, "", client.QueryOptions{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return replay(w, seed, in, want, d, ops,
		func(c, i int) (answer, uint64, *eval.Stats, error) {
			s, cctx := call("client.query")
			res, err := clients[c].Query(cctx, in.pool[i].Text, in.pool[i].Params, "", client.QueryOptions{})
			s.end()
			if err != nil {
				return answer{}, 0, nil, err
			}
			return digest(res.Rows), res.Version, nil, nil
		},
		func(k int, l Load) error {
			s, cctx := call("client.load")
			_, err := clients[w.Readers].Load(cctx, l.Table, l.Rows)
			s.end()
			return err
		}), nil
}

// replayPipeline replays the stream through the module-by-module
// pipeline.
func replayPipeline(ctx context.Context, w *Workload, seed int64, in *inputs, want []answer, d time.Duration,
	tr *tracer, ops *tally) (*replayed, *pipeline, error) {
	p := newPipeline(tr, in.base)
	// The pipeline starts cold, so hot's first pass shows what a miss
	// costs there. Only zipf, whose cache takes long to fill, warms
	// first (request id 0: left out of the layer sums).
	for _, i := range w.warmup(seed, in.pool)[:w.Warm] {
		if _, err := p.serve(ctx, 0, in.pool[i]); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	before := p.plans.Stats()
	r := replay(w, seed, in, want, d, ops,
		func(c, i int) (answer, uint64, *eval.Stats, error) {
			res, err := p.serve(ctx, tr.nextReq(), in.pool[i])
			if err != nil {
				return answer{}, 0, nil, err
			}
			return res.got, res.version, &res.eval, nil
		},
		func(k int, l Load) error { return p.load(l) })
	after := p.plans.Stats()
	p.window = plancacheDelta{hits: after.Hits - before.Hits, misses: after.Misses - before.Misses, evictions: after.Evictions - before.Evictions}
	return r, p, nil
}

// checkpointCounter is a persist fault hook that injects nothing and
// counts checkpoints.
type checkpointCounter struct{ n atomic.Int64 }

func (c *checkpointCounter) Hit(site guard.Site) error {
	if site == guard.SitePersistCheckpoint {
		c.n.Add(1)
	}
	return nil
}

// stored is what the storage replay measured.
type stored struct {
	table       []float64 // us per table.Store.Update
	updates     []float64 // ms per persist.Store.Update
	checkpoints int64
	open        float64 // s to reopen (recover) the directory
}

// replayStorage applies the load schedule back to back, first to a
// table.Store (certsqld's in-memory catalog), then to a persist.Store
// of its own in dir, which it then reopens. Every workload replays it,
// so the storage figures exist on each; ingest's writer sends the same
// schedule to certsqld.
func replayStorage(dir string, base *table.Database, loads []Load) (*stored, error) {
	r := &stored{}
	mem := table.NewStore(base)
	for _, l := range loads {
		t0 := time.Now()
		if _, err := mem.Update(func(db *table.Database) error { return applyLoad(db, l) }); err != nil {
			return nil, err
		}
		r.table = append(r.table, us(time.Since(t0)))
	}

	hook := &checkpointCounter{}
	st, err := persist.Open(dir, func() (*table.Database, error) { return base.Clone(), nil }, persist.Options{Hook: hook})
	if err != nil {
		return nil, err
	}
	hook.n.Store(0) // the first checkpoint belongs to set-up
	for _, l := range loads {
		t0 := time.Now()
		if _, err := st.Update(func(db *table.Database) error { return applyLoad(db, l) }); err != nil {
			st.Abandon()
			return nil, err
		}
		r.updates = append(r.updates, ms(time.Since(t0)))
	}
	r.checkpoints = hook.n.Load()
	if err := st.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	st, err = persist.Open(dir, nil, persist.Options{})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	r.open = time.Since(t0).Seconds()
	v := st.Version()
	if err := st.Close(); err != nil {
		return nil, err
	}
	if v != uint64(len(loads))+1 {
		return nil, fmt.Errorf("reopened at version %d, want %d", v, len(loads)+1)
	}
	return r, nil
}

// generations is how many times the traced run generates the
// instance; tpch.generate_s is the median.
const generations = 3

// traced is the per-layer run: the same seeded stream replayed
// in-process three ways (through the handler untraced, through the
// handler traced, and through the module pipeline traced), plus the
// load schedule against storage of its own.
func traced(ctx context.Context, w *Workload, seed int64, seconds float64, env *runEnv) (*result, error) {
	ph := newPhases()
	cfg := tpch.Config{ScaleFactor: w.SF, Seed: seed, NullRate: nullRate}
	var gen []float64
	var base *table.Database
	for i := 0; i < generations; i++ {
		t0 := time.Now()
		base = tpch.Generate(cfg)
		gen = append(gen, time.Since(t0).Seconds())
	}
	in := inputsFrom(w, seed, seconds, base)
	want, err := expectedAnswers(in.base, in.pool, allPlans(in.pool))
	if err != nil {
		return nil, fmt.Errorf("expected answers: %w", err)
	}
	ph.done("inputs")

	slice := time.Duration(seconds / 3 * float64(time.Second))
	ops := &tally{}
	plain, err := replayHandler(ctx, w, seed, in, want, slice, nil, filepath.Join(env.dir, "plain"), ops)
	if err != nil {
		return nil, err
	}
	ph.done("handler, untraced")
	tr := newTracer()
	hand, err := replayHandler(ctx, w, seed, in, want, slice, tr, filepath.Join(env.dir, "traced"), ops)
	if err != nil {
		return nil, err
	}
	ph.done("handler, traced")
	pipe, p, err := replayPipeline(ctx, w, seed, in, want, slice, tr, ops)
	if err != nil {
		return nil, err
	}
	ph.done("pipeline, traced")
	stor, err := replayStorage(filepath.Join(env.dir, "persist"), in.base, in.loads)
	if err != nil {
		return nil, fmt.Errorf("storage replay: %w", err)
	}
	ph.done("storage replay")
	if w.Durable {
		// The untraced replay's reads are checked for version order only;
		// the traced replay's and the pipeline's answers also by version.
		ops.checked(plain.reads, 0, "")
		for _, r := range []*replayed{hand, pipe} {
			wrong, err := checkVersioned(in.base, in.pool, in.loads, r.checks)
			if err != nil {
				return nil, err
			}
			ops.checked(r.reads, wrong, "traced ingest read: wrong answer at its catalog version")
		}
		ph.done("ingest read checks")
	}

	var spans []span
	for _, s := range tr.all() {
		if s.Req != 0 { // warm-up
			spans = append(spans, s)
		}
	}
	if err := writeSpans(filepath.Join(buildDir, "spans-"+w.Name+".jsonl"), spans); err != nil {
		return nil, err
	}
	m := layerMetrics(sumByName(spans), hand, pipe, p, in.pool)
	m["trace.qps_untraced"] = metric{plain.qps(), "req/s", plain.reads}
	m["trace.qps_traced"] = metric{hand.qps(), "req/s", hand.reads}
	m["trace.overhead"] = metric{1 - hand.qps()/plain.qps(), "fraction", plain.reads + hand.reads}
	m["tpch.generate_s"] = metric{median(gen), "s", len(gen)}
	m["table.update_us"] = metric{median(stor.table), "us", len(stor.table)}
	m["persist.update_p50_ms"] = metric{median(stor.updates), "ms", len(stor.updates)}
	m["persist.update_max_ms"] = metric{maxOf(stor.updates), "ms", len(stor.updates)}
	m["persist.checkpoints"] = metric{float64(stor.checkpoints), "count", len(stor.updates)}
	m["persist.open_s"] = metric{stor.open, "s", 1}
	printMetrics("per-layer (traced replay)", m)
	for _, why := range ops.reasons {
		fmt.Fprintln(os.Stderr, "  failure:", why)
	}
	return &result{
		Correct:   ops.wrong == 0 && ops.fivexx == 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics:   m,
	}, nil
}
