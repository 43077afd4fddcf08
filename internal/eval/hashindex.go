package eval

import (
	"math"

	"certsql/internal/algebra"
	"certsql/internal/table"
	"certsql/internal/value"
)

// The hash-index kernel (DESIGN.md §17). Join blocks (hashJoin) and
// correlated (anti-)semijoins (prepSemi, reverseSemi) build every hash
// index through buildIndex and probe it through bucket/lookup. The
// index stores int32 row ids grouped by key in CSR form — one map from
// key to bucket number, one offsets array, one ids array — so a build
// allocates three slices and a map, not one slice per key.
//
// Keys are canonical: two rows share a bucket exactly when their key
// columns have equal value.AppendKey encodings. A single key column
// takes the numeric fast path (numKeyOf: uint64 map keys, no string
// per row) for as long as its values are numbers or nulls; the first
// value of another kind re-keys the rows seen so far as TupleKey
// strings, keeping their bucket numbers, and the build continues on
// the string map. Under
// SQL3VL a key with a null column never matches (A = NULL is unknown),
// so such rows enter no bucket and such probes miss.
//
// Ids within a bucket ascend. That is what lets either input of a join
// be the build side without changing the output order: see hashJoin and
// reverseSemi for the two orientations and their cost-unit symmetry.

// numKeyOf encodes v for the single-column numeric fast path. It
// mirrors value.AppendKey exactly on the kinds it accepts: numbers
// collapse int and float onto the float64 bits of AppendKey's tag 1,
// and nulls (null=true) key by mark, AppendKey's tag 0. ok=false for
// every other kind. A false return on the probe side is a guaranteed
// miss against a numeric index (its AppendKey tag differs from every
// numeric or null key); on the build side it switches the index to
// TupleKey strings.
func numKeyOf(v value.Value) (bits uint64, null, ok bool) {
	switch v.Kind() {
	case value.KindInt:
		return math.Float64bits(float64(v.AsInt())), false, true
	case value.KindFloat:
		return math.Float64bits(v.AsFloat()), false, true
	case value.KindNull:
		return uint64(v.NullID()), true, true
	default:
		return 0, false, false
	}
}

// hashIndex groups build-row ids by the key of their key columns.
type hashIndex struct {
	sqlMode bool
	// The numeric fast path keys numbers by their float64 bits in num
	// and null marks (naive semantics only) in marks. Both are nil once
	// the index is re-keyed, and for multi-column keys.
	num   map[uint64]int32
	marks map[uint64]int32
	str   map[string]int32 // bucket per TupleKey; nil while num is in use
	// Bucket b holds ids[start[b]:start[b+1]], ascending.
	start []int32
	ids   []int32
}

// buildIndex indexes rows on cols. size pre-sizes the key map. filter,
// when non-nil, is a build-side selection: rows it does not hold for
// enter no bucket. Under SQL3VL rows with a null key column are skipped. The
// loop polls for cancellation like any coordinator row loop.
func (ev *Evaluator) buildIndex(rows []table.Row, cols []int, size int, filter algebra.Cond) (*hashIndex, error) {
	h := &hashIndex{sqlMode: ev.opts.Semantics == value.SQL3VL}
	if len(cols) == 1 {
		h.num = make(map[uint64]int32, size)
	} else {
		h.str = make(map[string]int32, size)
	}
	// First pass: the bucket of every row (-1 when it enters none) and
	// the size of every bucket, numbered in first-seen order.
	rowBucket := make([]int32, len(rows))
	var counts []int32
	insert := func(m map[uint64]int32, k uint64) int32 {
		b, seen := m[k]
		if !seen {
			b = int32(len(counts))
			m[k] = b
			counts = append(counts, 0)
		}
		counts[b]++
		return b
	}
	for i, r := range rows {
		rowBucket[i] = -1
		if err := ev.tick("hash-build"); err != nil {
			return nil, err
		}
		if filter != nil {
			if v, err := ev.evalCond(filter, r); err != nil {
				return nil, err
			} else if !v.IsTrue() {
				continue
			}
		}
		if h.sqlMode && anyNull(r, cols) {
			continue
		}
		if h.num != nil {
			if k, null, ok := numKeyOf(r[cols[0]]); ok {
				if !null {
					rowBucket[i] = insert(h.num, k)
				} else {
					if h.marks == nil {
						h.marks = map[uint64]int32{}
					}
					rowBucket[i] = insert(h.marks, k)
				}
				continue
			}
			h.rekey(rows[:i], rowBucket[:i], cols)
		}
		k := value.TupleKey(r, cols)
		b, seen := h.str[k]
		if !seen {
			b = int32(len(counts))
			h.str[k] = b
			counts = append(counts, 0)
		}
		counts[b]++
		rowBucket[i] = b
	}
	// Second pass: a counting sort of the row ids by bucket. Rows are
	// visited in order, so every bucket's ids ascend.
	h.start = make([]int32, len(counts)+1)
	for b, n := range counts {
		h.start[b+1] = h.start[b] + n
	}
	h.ids = make([]int32, h.start[len(counts)])
	next := counts // reused as each bucket's fill cursor
	copy(next, h.start[:len(counts)])
	for i, b := range rowBucket {
		if b >= 0 {
			h.ids[next[b]] = int32(i)
			next[b]++
		}
	}
	return h, nil
}

// rekey abandons the numeric fast path: the rows indexed so far are
// re-keyed as TupleKey strings under their existing bucket numbers.
// Numeric and null keys are equal exactly when their AppendKey
// encodings are, so every bucket keeps its members.
func (h *hashIndex) rekey(rows []table.Row, rowBucket []int32, cols []int) {
	h.str = make(map[string]int32, len(h.num)+len(h.marks))
	for i, b := range rowBucket {
		if b >= 0 {
			h.str[value.TupleKey(rows[i], cols)] = b
		}
	}
	h.num, h.marks = nil, nil
}

// buckets returns the number of distinct build keys.
func (h *hashIndex) buckets() int { return len(h.start) - 1 }

// numeric reports whether the index kept the numeric fast path.
func (h *hashIndex) numeric() bool { return h.num != nil }

// bucket returns the bucket holding the build rows whose key equals the
// key of r on cols (the probe side's key columns), or -1. buf is the
// caller's scratch buffer for string keys; concurrent probes each pass
// their own.
func (h *hashIndex) bucket(r table.Row, cols []int, buf *[]byte) int32 {
	if h.sqlMode && anyNull(r, cols) {
		return -1
	}
	if h.num != nil {
		k, null, ok := numKeyOf(r[cols[0]])
		if !ok {
			return -1
		}
		m := h.num
		if null {
			m = h.marks
		}
		if b, hit := m[k]; hit {
			return b
		}
		return -1
	}
	b := (*buf)[:0]
	for _, c := range cols {
		b = value.AppendKey(b, r[c])
	}
	*buf = b
	if id, hit := h.str[string(b)]; hit { // no allocation: the conversion only feeds the lookup
		return id
	}
	return -1
}

// rows returns the ascending build-row ids of bucket b.
func (h *hashIndex) rows(b int32) []int32 { return h.ids[h.start[b]:h.start[b+1]] }

// lookup returns the ascending ids of the build rows matching r's key
// on cols, or nil.
func (h *hashIndex) lookup(r table.Row, cols []int, buf *[]byte) []int32 {
	if b := h.bucket(r, cols, buf); b >= 0 {
		return h.rows(b)
	}
	return nil
}
