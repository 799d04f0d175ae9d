package colbatch

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refAppendColumn is the map-based column encoder the open-addressing
// dictionary replaced, kept as the reference its output must match byte
// for byte.
func refAppendColumn(dst []byte, col []int64) []byte {
	if len(col) == 0 {
		return append(dst, encRaw)
	}
	dict := make(map[int64]uint32)
	var vals []int64
	idx := make([]uint32, len(col))
	dictLimit := maxDict
	if half := len(col) / 2; half < dictLimit {
		dictLimit = half + 1
	}
	rawSize, idxSize, dictOK := 0, 0, true
	for i, v := range col {
		rawSize += zigzagLen(v)
		if !dictOK {
			continue
		}
		k, ok := dict[v]
		if !ok {
			if len(vals) >= dictLimit {
				dictOK = false
				continue
			}
			k = uint32(len(vals))
			dict[v] = k
			vals = append(vals, v)
		}
		idx[i] = k
		idxSize += uvarintLen(uint64(k))
	}
	if dictOK && len(vals) == 1 {
		return binary.AppendVarint(append(dst, encConst), col[0])
	}
	if dictOK {
		dictSize := uvarintLen(uint64(len(vals))) + idxSize
		for _, v := range vals {
			dictSize += zigzagLen(v)
		}
		if dictSize < rawSize {
			dst = append(dst, encDict)
			dst = binary.AppendUvarint(dst, uint64(len(vals)))
			for _, v := range vals {
				dst = binary.AppendVarint(dst, v)
			}
			for _, k := range idx {
				dst = binary.AppendUvarint(dst, uint64(k))
			}
			return dst
		}
	}
	dst = append(dst, encRaw)
	for _, v := range col {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// distinctColumn returns n rows cycling through d distinct values spread
// by step, shuffled.
func distinctColumn(rng *rand.Rand, n, d int, step int64) []int64 {
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i%d) * step
	}
	rng.Shuffle(n, func(i, j int) { col[i], col[j] = col[j], col[i] })
	return col
}

// TestDictMatchesMapReference drives one reused Encoder through random
// columns, int64 extremes, values that share low or high bits, and columns
// straddling the dictLimit and maxDict cut-overs, and requires every
// column's encoding to equal the map-based reference's.
func TestDictMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}
	var cols [][]int64
	for i := 0; i < 300; i++ {
		n := rng.Intn(300)
		if i%10 == 0 {
			n = rng.Intn(3 * maxDict)
		}
		spread := []int64{1, 3, 50, 1 << 20, math.MaxInt64}[rng.Intn(5)]
		col := make([]int64, n)
		for j := range col {
			switch rng.Intn(8) {
			case 0:
				col[j] = extremes[rng.Intn(len(extremes))]
			default:
				col[j] = rng.Int63n(spread) - spread/2
			}
		}
		cols = append(cols, col)
	}
	cols = append(cols, nil, extremes, []int64{math.MinInt64}, []int64{math.MaxInt64, math.MaxInt64})
	for _, n := range []int{1, 2, 3, 9, 10, 11, 100, 2 * maxDict, 2*maxDict + 1, 3 * maxDict} {
		limit := min(maxDict, n/2+1)
		for _, d := range []int{limit - 1, limit, limit + 1} {
			if d < 1 || d > n {
				continue
			}
			for _, step := range []int64{1, 1 << 32, 1 << 52, -1 << 62} {
				cols = append(cols, distinctColumn(rng, n, d, step))
			}
		}
	}

	var e Encoder
	check := func(col []int64) {
		t.Helper()
		got := e.appendColumn(nil, col)
		want := refAppendColumn(nil, col)
		if !bytes.Equal(got, want) {
			t.Fatalf("column of %d rows: encoding differs from the map reference\ngot  %x\nwant %x", len(col), got, want)
		}
	}
	for _, col := range cols {
		check(col)
	}
	// Wrap the generation stamp: stale slots must not read as live.
	e.dict.gen = math.MaxUint32 - 1
	for _, col := range cols[:20] {
		check(col)
	}
}
