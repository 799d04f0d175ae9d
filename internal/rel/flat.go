package rel

// Flat rows. A relation can also be laid out as one arity-strided,
// row-major []int64: row i of a width-w array occupies data[i*w:(i+1)*w].
// Tributary join's sorted arrays and the cost model's distinct counts use
// this form — one allocation per relation instead of one per tuple, with
// each row's values adjacent for the searches.

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
	buf := make([]int64, len(data))
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
