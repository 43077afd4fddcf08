package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that made the call (0 for a request's root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer started
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has begun and not yet ended.
type open struct {
	t    *tracer
	s    span
	from time.Time
}

// begin starts a span named name for request req under parent.
func (t *tracer) begin(req, parent int64, name string) open {
	if t == nil {
		return open{}
	}
	now := time.Now()
	return open{t: t, from: now, s: span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: now.Sub(t.t0)}}
}

// id is the span's identifier, for children to name as their parent.
func (o open) id() int64 { return o.s.ID }

// end records the span.
func (o open) end() {
	if o.t == nil {
		return
	}
	o.s.End = o.s.Start + time.Since(o.from)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// nextReq mints a request id.
func (t *tracer) nextReq() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover. Overlapping children count once,
// and a child's time outside its parent's interval does not count.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur := s.Start // covered up to here
		for _, c := range cs {
			from, to := max(c.Start, cur), min(c.End, s.End)
			if to > from {
				covered += to - from
				cur = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerTimes sums, per span name, total and self time over spans.
type layerTimes struct {
	total, self map[string]time.Duration
	count       map[string]int
}

func sumByName(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	for _, s := range spans {
		lt.total[s.Name] += s.dur()
		lt.self[s.Name] += self[s.ID]
		lt.count[s.Name]++
	}
	return lt
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// frontEnd lists the modules a plan-cache miss runs before evaluation.
var frontEnd = []string{"sql.", "compile.", "analyze.", "certain.", "plan."}

// layerMetrics turns span sums into the per-layer metrics. Times are
// means per read request of the replay that measured them, except
// eval.<shape>_ms (per request of that shape).
func layerMetrics(lt layerTimes, hand, pipe *replayed, p *pipeline, pool []Plan) map[string]metric {
	hn, pn := max(hand.reads, 1), max(pipe.reads, 1)
	perRead := func(d time.Duration, n int) float64 { return us(d) / float64(n) }
	engine := lt.total["pipeline.request"] - lt.total["api.encode"]
	m := map[string]metric{
		"http.roundtrip_us": {perRead(lt.self["http.roundtrip"], hn), "us", hand.reads},
		"client.decode_us":  {perRead(lt.self["client.query"], hn), "us", hand.reads},
		"server.handler_us": {perRead(lt.total["server.handler"], hn), "us", hand.reads},
		"server.self_us":    {perRead(lt.total["server.handler"], hn) - perRead(engine, pn), "us", hand.reads},
		"api.encode_us":     {perRead(lt.total["api.encode"], pn), "us", pipe.reads},
	}
	for _, name := range []string{"sql.parse", "compile.compile", "analyze.plan", "certain.plus", "plan.optimize", "stats.collect"} {
		m[name+"_us"] = metric{perRead(lt.self[name], pn), "us", lt.count[name]}
	}
	lookups := p.window.hits + p.window.misses
	m["plancache.hit_ratio"] = metric{float64(p.window.hits) / float64(max(lookups, 1)), "fraction", int(lookups)}
	m["plancache.evictions"] = metric{float64(p.window.evictions), "count", int(lookups)}

	var evalTotal, front time.Duration
	for name, d := range lt.total {
		for _, prefix := range frontEnd {
			if strings.HasPrefix(name, prefix) {
				front += d
			}
		}
		if strings.HasPrefix(name, "eval.") {
			evalTotal += d
		}
	}
	m["engine.eval_share"] = metric{float64(evalTotal) / float64(max(engine, 1)), "fraction", pipe.reads}
	m["engine.frontend_share"] = metric{float64(front) / float64(max(engine, 1)), "fraction", pipe.reads}

	cost, mem, plans := map[string]float64{}, map[string]float64{}, map[string]int{}
	for i, st := range pipe.evals {
		s := pool[i].Shape()
		cost[s] += float64(st.CostUnits)
		mem[s] += float64(st.MemHighWaterBytes)
		plans[s]++
	}
	evalMs := map[string]float64{}
	for _, s := range shapes() {
		n := lt.count["eval."+s]
		evalMs[s] = ms(lt.total["eval."+s]) / float64(max(n, 1))
		k := float64(max(plans[s], 1))
		m["eval."+s+"_ms"] = metric{evalMs[s], "ms", n}
		m["eval."+s+"_cost_units"] = metric{cost[s] / k, "count", plans[s]}
		m["eval."+s+"_mem_bytes"] = metric{mem[s] / k, "bytes", plans[s]}
	}
	for _, q := range []string{"q1", "q2", "q3", "q4"} {
		price := 0.0
		if evalMs[q] > 0 {
			price = evalMs[q+"_plus"] / evalMs[q]
		}
		m["price."+q] = metric{price, "ratio", lt.count["eval."+q+"_plus"]}
	}
	return m
}
