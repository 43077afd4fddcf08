package eval

import (
	"math"

	"certsql/internal/table"
	"certsql/internal/value"
)

// The hash-index kernel (DESIGN.md §17). Join blocks (hashJoin) and
// correlated (anti-)semijoins (prepSemi, reverseSemi) build every hash
// index through buildIndex and probe it through bucket/lookup. The
// index stores int32 row ids grouped by key in CSR form — one map from
// key to bucket number, one offsets array, one ids array — so a build
// allocates three slices and a map, not one slice per key. Keys are
// read through a keySource: plain table rows, or a join block's row-id
// tuples, whose key columns are read from the rows the ids name.
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

// keyCol locates one key column of a keySource: column col of the row,
// in rows, that a tuple's slot names. Plain sources use slot 0.
type keyCol struct {
	rows []table.Row
	slot int
	col  int
}

// keySource reads the key columns of the n entries an index is built
// over or probed with. In the plain form (ids nil) entry i is row i of
// the columns' table. In the tuple form entry i is the row-id tuple
// ids[i*width:(i+1)*width] of a join block, and each key column reads
// the row its slot names — key values are read where they lie, never
// copied into a wide row first.
type keySource struct {
	n     int
	ids   []int32
	width int
	cols  []keyCol
}

// rowKeys is the plain key source over rows on columns cols.
func rowKeys(rows []table.Row, cols []int) keySource {
	s := keySource{n: len(rows), cols: make([]keyCol, len(cols))}
	for j, c := range cols {
		s.cols[j] = keyCol{rows: rows, col: c}
	}
	return s
}

// at returns key column j of entry i.
func (s *keySource) at(i, j int) value.Value {
	c := &s.cols[j]
	if s.ids != nil {
		i = int(s.ids[i*s.width+c.slot])
	}
	return c.rows[i][c.col]
}

// row returns entry i's row; plain sources only.
func (s *keySource) row(i int) table.Row { return s.cols[0].rows[i] }

// anyNull reports whether any key column of entry i is null.
func (s *keySource) anyNull(i int) bool {
	for j := range s.cols {
		if s.at(i, j).IsNull() {
			return true
		}
	}
	return false
}

// appendKey appends entry i's canonical key (value.TupleKey's bytes).
func (s *keySource) appendKey(b []byte, i int) []byte {
	for j := range s.cols {
		b = value.AppendKey(b, s.at(i, j))
	}
	return b
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

// buildIndex indexes the entries of src on its key columns; entry i
// gets id i. size pre-sizes the key map. filter, when non-nil, is a
// compiled build-side selection over a plain source: rows it does not
// hold for enter no bucket. presence marks an index that is only asked
// whether a key is present (a semijoin whose keys decide the match):
// a row whose key is already in needs no filter and is left out. Under
// SQL3VL entries with a null key column are skipped. The loop polls for
// cancellation like any coordinator row loop.
func (ev *Evaluator) buildIndex(src *keySource, size int, filter condFn, presence bool) (*hashIndex, error) {
	h := &hashIndex{sqlMode: ev.opts.Semantics == value.SQL3VL}
	if len(src.cols) == 1 {
		h.num = make(map[uint64]int32, size)
	} else {
		h.str = make(map[string]int32, size)
	}
	// First pass: the bucket of every entry (-1 when it enters none)
	// and the size of every bucket, numbered in first-seen order.
	rowBucket := make([]int32, src.n)
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
	var key []byte
	for i := 0; i < src.n; i++ {
		rowBucket[i] = -1
		if err := ev.tick("hash-build"); err != nil {
			return nil, err
		}
		if filter != nil {
			if presence && h.bucket(src, i, &key) >= 0 {
				continue
			}
			if v, err := filter(src.row(i)); err != nil {
				return nil, err
			} else if !v.IsTrue() {
				continue
			}
		}
		if h.sqlMode && src.anyNull(i) {
			continue
		}
		if h.num != nil {
			if k, null, ok := numKeyOf(src.at(i, 0)); ok {
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
			h.rekey(src, rowBucket[:i])
		}
		key = src.appendKey(key[:0], i)
		b, seen := h.str[string(key)]
		if !seen {
			b = int32(len(counts))
			h.str[string(key)] = b
			counts = append(counts, 0)
		}
		counts[b]++
		rowBucket[i] = b
	}
	// Second pass: a counting sort of the entry ids by bucket. Entries
	// are visited in order, so every bucket's ids ascend.
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

// rekey abandons the numeric fast path: the entries indexed so far are
// re-keyed as TupleKey strings under their existing bucket numbers.
// Numeric and null keys are equal exactly when their AppendKey
// encodings are, so every bucket keeps its members.
func (h *hashIndex) rekey(src *keySource, rowBucket []int32) {
	h.str = make(map[string]int32, len(h.num)+len(h.marks))
	var key []byte
	for i, b := range rowBucket {
		if b >= 0 {
			key = src.appendKey(key[:0], i)
			h.str[string(key)] = b
		}
	}
	h.num, h.marks = nil, nil
}

// buckets returns the number of distinct build keys.
func (h *hashIndex) buckets() int { return len(h.start) - 1 }

// empty reports whether no build entry entered a bucket: every probe
// misses, so callers skip their probe loops (charging them all the
// same).
func (h *hashIndex) empty() bool { return len(h.ids) == 0 }

// numeric reports whether the index kept the numeric fast path.
func (h *hashIndex) numeric() bool { return h.num != nil }

// bucket returns the bucket holding the build entries whose key equals
// the key of probe entry i of src, or -1. buf is the caller's scratch
// buffer for string keys; concurrent probes each pass their own.
func (h *hashIndex) bucket(src *keySource, i int, buf *[]byte) int32 {
	if h.sqlMode && src.anyNull(i) {
		return -1
	}
	if h.num != nil {
		k, null, ok := numKeyOf(src.at(i, 0))
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
	b := src.appendKey((*buf)[:0], i)
	*buf = b
	if id, hit := h.str[string(b)]; hit { // no allocation: the conversion only feeds the lookup
		return id
	}
	return -1
}

// rows returns the ascending build ids of bucket b.
func (h *hashIndex) rows(b int32) []int32 { return h.ids[h.start[b]:h.start[b+1]] }

// lookup returns the ascending ids of the build entries matching probe
// entry i of src, or nil.
func (h *hashIndex) lookup(src *keySource, i int, buf *[]byte) []int32 {
	if b := h.bucket(src, i, buf); b >= 0 {
		return h.rows(b)
	}
	return nil
}
