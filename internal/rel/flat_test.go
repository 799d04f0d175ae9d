package rel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortFlatReference sorts a strided array by materializing tuples and
// ordering them with slices.SortFunc over Tuple.Compare.
func sortFlatReference(data []int64, w int) []int64 {
	rows := make([]Tuple, 0, len(data)/w)
	for i := 0; i < len(data); i += w {
		rows = append(rows, Tuple(data[i:i+w]).Clone())
	}
	slices.SortFunc(rows, Tuple.Compare)
	out := make([]int64, 0, len(data))
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

func checkSortFlat(t *testing.T, data []int64, w int) {
	t.Helper()
	want := sortFlatReference(data, w)
	got := slices.Clone(data)
	SortFlat(got, w)
	if !slices.Equal(got, want) {
		t.Fatalf("width %d, %d rows: SortFlat differs from slices.SortFunc\n got %v\nwant %v",
			w, len(data)/w, got, want)
	}
}

// TestSortFlatMatchesSortFunc cross-checks the radix sort against a
// comparison sort over widths 1–4, sizes from empty to well past the
// insertion-sort cutoff, and value mixes with negatives, the int64
// extremes, heavy duplication and wide ranges (so every byte position
// varies somewhere).
// TestRowsViewsAreClamped: appending to a Row or Slice view must not
// overwrite the rows that follow it in the shared array.
func TestRowsViewsAreClamped(t *testing.T) {
	r := Rows{Arity: 2, N: 3, Data: []int64{1, 2, 3, 4, 5, 6}}
	_ = append(r.Row(0), 99)
	v := r.Slice(0, 2)
	v.Append([]int64{-1, -1})
	if !slices.Equal(r.Data, []int64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("view append overwrote the shared array: %v", r.Data)
	}
	if v.N != 3 || !slices.Equal(v.Data, []int64{1, 2, 3, 4, -1, -1}) {
		t.Fatalf("appended view: %d rows %v", v.N, v.Data)
	}
}

func TestSortFlatMatchesSortFunc(t *testing.T) {
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	gens := []struct {
		name string
		gen  func(*rand.Rand) int64
	}{
		{"small", func(r *rand.Rand) int64 { return r.Int63n(8) }},
		{"signed", func(r *rand.Rand) int64 { return r.Int63n(2001) - 1000 }},
		{"extremes", func(r *rand.Rand) int64 { return extremes[r.Intn(len(extremes))] }},
		{"wide", func(r *rand.Rand) int64 { return int64(r.Uint64()) }},
		{"mixed", func(r *rand.Rand) int64 {
			if r.Intn(4) == 0 {
				return extremes[r.Intn(len(extremes))]
			}
			return r.Int63n(1<<20) - 1<<19
		}},
	}
	sizes := []int{0, 1, 2, 3, 7, smallSortRows - 1, smallSortRows, smallSortRows + 1, 100, 1000, 5000}
	rng := rand.New(rand.NewSource(1))
	for w := 1; w <= 4; w++ {
		for _, g := range gens {
			for _, n := range sizes {
				data := make([]int64, n*w)
				for i := range data {
					data[i] = g.gen(rng)
				}
				t.Run(fmt.Sprintf("w=%d/%s/n=%d", w, g.name, n), func(t *testing.T) {
					checkSortFlat(t, data, w)
				})
			}
		}
	}
}

func TestSortFlatAlreadySortedAndReversed(t *testing.T) {
	for _, n := range []int{smallSortRows + 1, 500} {
		data := make([]int64, 0, 2*n)
		for i := 0; i < n; i++ {
			data = append(data, int64(i/3)-50, int64(-i))
		}
		checkSortFlat(t, data, 2)
		slices.Reverse(data)
		checkSortFlat(t, data, 2)
	}
}

// FuzzSortFlat decodes the input into int64 values (eight bytes each) and
// a width in 1..4, and checks SortFlat against the comparison sort.
func FuzzSortFlat(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1))
	f.Add(make([]byte, 8*3*60), uint8(3))
	seed := make([]byte, 8*2*100)
	rand.New(rand.NewSource(2)).Read(seed)
	f.Add(seed, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, wRaw uint8) {
		w := int(wRaw%4) + 1
		n := len(raw) / 8 / w
		data := make([]int64, n*w)
		for i := range data {
			data[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkSortFlat(t, data, w)
	})
}

func BenchmarkSortFlat(b *testing.B) {
	for _, w := range []int{2, 3} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			src := make([]int64, 50000*w)
			for i := range src {
				src[i] = rng.Int63n(40000)
			}
			data := make([]int64, len(src))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(data, src)
				SortFlat(data, w)
			}
		})
	}
}
