package value

import (
	"encoding/binary"
	"math"
)

// AppendKey appends a canonical binary encoding of v to b, suitable for
// use as a hash-join or grouping key. The encoding is injective on
// constants up to numeric equality (integers and integral floats that
// compare equal encode identically) and distinguishes nulls by mark, so
// that under naive semantics nulls can participate in hash joins.
func AppendKey(b []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		b = append(b, 0)
		b = binary.BigEndian.AppendUint64(b, uint64(v.i))
	case KindInt:
		b = append(b, 1)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(float64(v.i)))
	case KindFloat:
		b = append(b, 1) // same tag as int: numeric values join across kinds
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.f))
	case KindString:
		b = append(b, 2)
		b = binary.BigEndian.AppendUint32(b, uint32(len(v.s)))
		b = append(b, v.s...)
	case KindDate:
		b = append(b, 3)
		b = binary.BigEndian.AppendUint64(b, uint64(v.i))
	case KindBool:
		b = append(b, 4, byte(v.i))
	}
	return b
}

// TupleKey builds a canonical string key for the projection of row onto
// cols, for use in hash tables. Using string keys lets Go's map do the
// hashing and equality.
func TupleKey(row []Value, cols []int) string {
	b := make([]byte, 0, 16*len(cols))
	for _, c := range cols {
		b = AppendKey(b, row[c])
	}
	return string(b)
}

// RowKey builds a canonical string key for an entire row.
func RowKey(row []Value) string {
	b := make([]byte, 0, 16*len(row))
	for _, v := range row {
		b = AppendKey(b, v)
	}
	return string(b)
}

// KeySeed is the 64-bit FNV-1a offset basis, the initial state for
// FoldKey chains.
const KeySeed uint64 = 14695981039346656037

const keyPrime uint64 = 1099511628211

// FoldKey folds v's canonical encoding into the running FNV-1a state h,
// byte for byte, without materializing the encoding: folding a row's
// values in order yields exactly FNV-1a over AppendKey's concatenated
// bytes (a property test pins this). It lets a caller hash many rows
// into one running digest without the per-row allocation RowKey pays;
// the served-traffic benchmark (servebench) digests answer rows this
// way to compare them with the in-process facade's.
func FoldKey(h uint64, v Value) uint64 {
	switch v.kind {
	case KindNull:
		h = (h ^ 0) * keyPrime
		h = fold64(h, uint64(v.i))
	case KindInt:
		h = (h ^ 1) * keyPrime
		h = fold64(h, math.Float64bits(float64(v.i)))
	case KindFloat:
		h = (h ^ 1) * keyPrime // same tag as int: numeric values hash across kinds
		h = fold64(h, math.Float64bits(v.f))
	case KindString:
		h = (h ^ 2) * keyPrime
		h = fold32(h, uint32(len(v.s)))
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * keyPrime
		}
	case KindDate:
		h = (h ^ 3) * keyPrime
		h = fold64(h, uint64(v.i))
	case KindBool:
		h = (h ^ 4) * keyPrime
		h = (h ^ uint64(byte(v.i))) * keyPrime
	}
	return h
}

// fold64 folds x's big-endian bytes into the FNV-1a state h.
func fold64(h, x uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (x >> uint(shift) & 0xff)) * keyPrime
	}
	return h
}

// fold32 folds x's big-endian bytes into the FNV-1a state h.
func fold32(h uint64, x uint32) uint64 {
	for shift := 24; shift >= 0; shift -= 8 {
		h = (h ^ uint64(x>>uint(shift)&0xff)) * keyPrime
	}
	return h
}
