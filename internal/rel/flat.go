package rel

import "sync"

// Flat rows. A relation can also be laid out as one arity-strided,
// row-major []int64: row i of a width-w array occupies data[i*w:(i+1)*w].
// Operator batches, exchange batches, Tributary join's sorted arrays and
// the cost model's distinct counts use this form — one allocation per
// batch or relation instead of one per tuple, with each row's values
// adjacent for the searches.

// Rows is a block of rows in the flat layout: row i occupies
// Data[i*Arity:(i+1)*Arity]. N counts the rows, which the data length
// cannot do for arity 0 — a fully-constant atom or a zero-column
// projection, whose only information is how many rows there are.
type Rows struct {
	Arity int
	N     int
	Data  []int64
}

// Row returns row i as a tuple view into Data. Its capacity ends with the
// row, so appending to it cannot overwrite the next one.
func (r Rows) Row(i int) Tuple {
	return Tuple(r.Data[i*r.Arity : (i+1)*r.Arity : (i+1)*r.Arity])
}

// Slice returns rows [i, j) as a view sharing Data. Like Row's, its
// capacity ends with row j-1, so appending to the view cannot overwrite
// the rows after it.
func (r Rows) Slice(i, j int) Rows {
	return Rows{Arity: r.Arity, N: j - i, Data: r.Data[i*r.Arity : j*r.Arity : j*r.Arity]}
}

// Append copies t to the end of r as a new row.
func (r *Rows) Append(t []int64) {
	r.Data = append(r.Data, t...)
	r.N++
}

// Reset empties r, keeping Data's storage for reuse.
func (r *Rows) Reset() {
	r.Data = r.Data[:0]
	r.N = 0
}

// FlatRows copies tuples (all of arity w) into one flat block.
func FlatRows(w int, tuples []Tuple) Rows {
	r := Rows{Arity: w, N: len(tuples), Data: make([]int64, 0, w*len(tuples))}
	for _, t := range tuples {
		r.Data = append(r.Data, t...)
	}
	return r
}

// AppendTuples appends one tuple view per row of r, sharing Data, to dst —
// the form rel.Relation holds.
func (r Rows) AppendTuples(dst []Tuple) []Tuple {
	for i := 0; i < r.N; i++ {
		dst = append(dst, r.Row(i))
	}
	return dst
}

// sortBufs recycles SortFlat's radix scratch arrays (of *[]int64): a
// query sorts every atom's array, so the scratch is reused across atoms
// and queries instead of allocated per sort.
var sortBufs sync.Pool

// smallSortRows is the row count up to which SortFlat uses insertion sort:
// below it, the radix sort's counting passes cost more than they save.
const smallSortRows = 48

// SortFlat sorts the rows of the width-w strided array data in place into
// exactly the order Tuple.Compare defines: lexicographic over signed
// values. It is an LSD radix sort over each column's bytes, last column
// first, with the sign bit flipped so unsigned byte order is signed value
// order. A byte position that holds the same value in every row cannot
// reorder anything and is skipped, which leaves two or three passes per
// column for dense identifiers. Each pass is stable, so the passes compose
// into the lexicographic order. Small inputs use insertion sort instead.
func SortFlat(data []int64, w int) {
	if w <= 0 || len(data) <= w {
		return
	}
	n := len(data) / w
	if n <= smallSortRows {
		insertionSortFlat(data, w)
		return
	}
	const signBit = 1 << 63
	var buf []int64
	if p, ok := sortBufs.Get().(*[]int64); ok && cap(*p) >= len(data) {
		buf = (*p)[:len(data)]
	} else {
		buf = make([]int64, len(data))
	}
	defer sortBufs.Put(&buf)
	src, dst := data, buf
	var count [256]int
	for col := w - 1; col >= 0; col-- {
		// Bits that differ between some two rows of this column. Passes
		// over other columns only permute rows, so the set is fixed.
		and, or := ^uint64(0), uint64(0)
		for i := col; i < len(src); i += w {
			and &= uint64(src[i])
			or |= uint64(src[i])
		}
		varying := and ^ or
		for shift := 0; shift < 64; shift += 8 {
			if (varying>>shift)&0xff == 0 {
				continue
			}
			count = [256]int{}
			for i := col; i < len(src); i += w {
				count[byte((uint64(src[i])^signBit)>>shift)]++
			}
			sum := 0
			for b, c := range count {
				count[b] = sum
				sum += c
			}
			for i := 0; i < len(src); i += w {
				b := byte((uint64(src[i+col]) ^ signBit) >> shift)
				j := count[b] * w
				count[b]++
				row := dst[j : j+w]
				for c := range row {
					row[c] = src[i+c]
				}
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

// insertionSortFlat sorts a strided array's rows by swapping adjacent rows
// element by element, so it needs no row-sized temporary.
func insertionSortFlat(data []int64, w int) {
	for i := w; i < len(data); i += w {
		for j := i; j > 0 && compareFlat(data[j:j+w], data[j-w:j]) < 0; j -= w {
			for c := 0; c < w; c++ {
				data[j+c], data[j-w+c] = data[j-w+c], data[j+c]
			}
		}
	}
}

// compareFlat is Tuple.Compare for two equal-width rows.
func compareFlat(a, b []int64) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}
