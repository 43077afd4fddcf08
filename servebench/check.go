package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"certsql"
	"certsql/internal/stats"
	"certsql/internal/table"
	"certsql/internal/value"
)

// answer is an order-independent digest of a result's rows: the row
// count and two sums of per-row hashes. It is cheap enough to take on
// the client's critical path, so every timed read is also checked.
// Numbers hash by value, not kind, because JSON carries 5.0 as 5.
type answer struct {
	Rows     int
	Sum, Mix uint64
}

func digest(rows [][]value.Value) answer {
	a := answer{Rows: len(rows)}
	for _, r := range rows {
		h := value.KeySeed
		for _, v := range r {
			h = value.FoldKey(h, v)
		}
		a.Sum += h
		a.Mix += splitmix(h)
	}
	return a
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// expectedAnswers evaluates the given plans of the pool in-process
// through the certsql facade, on two goroutines. want[i] is the digest
// of plan i; plans not listed are left zero.
func expectedAnswers(db *table.Database, pool []Plan, which []int) ([]answer, error) {
	facade := certsql.FromInternal(db)
	want := make([]answer, len(pool))
	jobs := make(chan int)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				a, err := evalPlan(facade, pool[i])
				if err != nil {
					errs <- err
					for range jobs { // drain so the sender finishes
					}
					return
				}
				want[i] = a
			}
		}()
	}
	for _, i := range which {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return want, <-errs
}

func evalPlan(db *certsql.DB, p Plan) (answer, error) {
	stmt, err := db.Prepare(p.Text)
	if err != nil {
		return answer{}, fmt.Errorf("%s: %w", p.Shape(), err)
	}
	res, err := stmt.ExecuteWithOptions(p.Params, certsql.Options{Parallelism: 1})
	if err != nil {
		return answer{}, fmt.Errorf("%s %v: %w", p.Shape(), p.Params, err)
	}
	return digest(res.Rows()), nil
}

func allPlans(pool []Plan) []int {
	out := make([]int, len(pool))
	for i := range out {
		out[i] = i
	}
	return out
}

// versionedRead is one ingest read, checked after the window against
// the catalog version it ran on.
type versionedRead struct {
	Plan    int
	Version uint64
	Got     answer
}

// applyLoad appends one load's rows to db.
func applyLoad(db *table.Database, l Load) error {
	for _, r := range l.Rows {
		if err := db.Insert(l.Table, r); err != nil {
			return err
		}
	}
	return nil
}

// checkVersioned replays the writer's loads in-process and checks
// each read against its version's answer, spreading versions over two
// goroutines. Version 1 is the seed and the writer is the only one, so
// version v holds exactly the first v-1 loads. It returns the number
// of wrong answers.
func checkVersioned(seed *table.Database, pool []Plan, loads []Load, reads []versionedRead) (int, error) {
	byVersion := map[uint64][]versionedRead{}
	var top uint64
	for _, r := range reads {
		byVersion[r.Version] = append(byVersion[r.Version], r)
		top = max(top, r.Version)
	}
	if top > uint64(len(loads))+1 {
		return 0, fmt.Errorf("read at version %d, but only %d loads were sent", top, len(loads))
	}
	type job struct {
		db    *table.Database
		reads []versionedRead
	}
	var (
		wg    sync.WaitGroup
		wrong atomic.Int64
		jobs  = make(chan job)
		errc  = make(chan error, 1)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Kept across versions like a server session's: a table a
			// load did not touch keeps its statistics.
			collector := stats.NewCollector()
			for j := range jobs {
				facade := certsql.FromInternal(j.db).WithStatsCollector(collector)
				for _, r := range j.reads {
					a, err := evalPlan(facade, pool[r.Plan])
					if err != nil {
						select {
						case errc <- err:
						default:
						}
						continue
					}
					if a != r.Got {
						wrong.Add(1)
					}
				}
			}
		}()
	}
	db := seed
	var err error
	for v := uint64(1); v <= top && err == nil; v++ {
		if v > 1 {
			db = db.Clone()
			err = applyLoad(db, loads[v-2])
		}
		if rs := byVersion[v]; len(rs) > 0 && err == nil {
			jobs <- job{db, rs}
		}
	}
	close(jobs)
	wg.Wait()
	if err != nil {
		return 0, err
	}
	select {
	case err := <-errc:
		return 0, err
	default:
	}
	return int(wrong.Load()), nil
}
