package main

import (
	"sort"
	"strings"

	"certsql/internal/compile"
	"certsql/internal/table"
	"certsql/internal/tpch"
)

// selectivity scores bindings by how many rows they select, counted
// by scanning the generated instance here rather than by asking the
// engine, so a change to the engine cannot change which bindings a
// seed picks.
type selectivity struct {
	suppNation map[int64]int64  // s_suppkey → s_nationkey
	partName   map[int64]string // p_partkey → p_name
	custNation []int64
	items      [][2]int64 // (l_suppkey, l_partkey) of each lineitem
}

func newSelectivity(db *table.Database) *selectivity {
	s := &selectivity{suppNation: map[int64]int64{}, partName: map[int64]string{}}
	for _, r := range db.MustTable("supplier").Rows() {
		if !r[0].IsNull() && !r[3].IsNull() {
			s.suppNation[r[0].AsInt()] = r[3].AsInt()
		}
	}
	for _, r := range db.MustTable("part").Rows() {
		if !r[0].IsNull() && !r[1].IsNull() {
			s.partName[r[0].AsInt()] = r[1].AsString()
		}
	}
	for _, r := range db.MustTable("customer").Rows() {
		if !r[3].IsNull() {
			s.custNation = append(s.custNation, r[3].AsInt())
		}
	}
	for _, r := range db.MustTable("lineitem").Rows() {
		if !r[1].IsNull() && !r[2].IsNull() {
			s.items = append(s.items, [2]int64{r[2].AsInt(), r[1].AsInt()})
		}
	}
	return s
}

func nationKey(name any) int64 {
	for i, n := range tpch.Nations {
		if n.Name == name {
			return int64(i)
		}
	}
	return -1
}

// of returns the score function for q: lineitems of the nation's
// suppliers (Q1), customers in the countries (Q2), lineitems of the
// supplier (Q3), lineitems of the colour's parts from the nation's
// suppliers (Q4).
func (s *selectivity) of(q tpch.QueryID) func(compile.Params) int {
	return func(p compile.Params) int {
		n := 0
		switch q {
		case tpch.Q1:
			nk := nationKey(p["nation"])
			for _, it := range s.items {
				if nat, ok := s.suppNation[it[0]]; ok && nat == nk {
					n++
				}
			}
		case tpch.Q2:
			in := map[int64]bool{}
			for _, k := range p["countries"].([]int64) {
				in[k] = true
			}
			for _, c := range s.custNation {
				if in[c] {
					n++
				}
			}
		case tpch.Q3:
			for _, it := range s.items {
				if it[0] == p["supp_key"].(int64) {
					n++
				}
			}
		case tpch.Q4:
			nk, color := nationKey(p["nation"]), p["color"].(string)
			for _, it := range s.items {
				if nat, ok := s.suppNation[it[0]]; ok && nat == nk && strings.Contains(s.partName[it[1]], color) {
					n++
				}
			}
		}
		return n
	}
}

// typical orders bindings by how far their score lies from the median
// score, nearest first; ties keep draw order.
func typical(ps []compile.Params, score func(compile.Params) int) []compile.Params {
	scores := make([]int, len(ps))
	for i, p := range ps {
		scores[i] = score(p)
	}
	sorted := append([]int(nil), scores...)
	sort.Ints(sorted)
	mid := sorted[len(sorted)/2]
	idx := make([]int, len(ps))
	for i := range idx {
		idx[i] = i
	}
	dist := func(i int) int { return max(scores[i]-mid, mid-scores[i]) }
	sort.SliceStable(idx, func(a, b int) bool { return dist(idx[a]) < dist(idx[b]) })
	out := make([]compile.Params, len(ps))
	for i, j := range idx {
		out[i] = ps[j]
	}
	return out
}
