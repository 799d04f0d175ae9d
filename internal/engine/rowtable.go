package engine

import "parajoin/internal/rel"

// rowTable is the engine's keyed row store, shared by the hash join, the
// semijoin and the dedup projection. Rows are copied flat into one
// arity-strided array in arrival order; next chains the rows whose keys
// share an index entry, also in arrival order, and index points at each
// chain's first and last row. A single-column key is the value itself, so a
// chain holds exactly the rows with that value. A multi-column key is a
// hash of the key columns, so lookups verify the columns while walking the
// chain.
type rowTable struct {
	arity int
	key   []int // key columns within a stored row
	data  []int64
	next  []int32 // next row on the same chain, -1 at the end
	index map[uint64]rowChain

	// hash keys multi-column rows; tests swap it to force collisions.
	hash func(seed uint64, t rel.Tuple, cols []int) uint64
}

type rowChain struct{ head, tail int32 }

func newRowTable(arity int, key []int) *rowTable {
	return &rowTable{arity: arity, key: key, index: make(map[uint64]rowChain), hash: rel.HashTuple}
}

// identityCols returns [0, n).
func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// keyOf returns the index key of t's cols, which correspond one to one to
// the table's key columns.
func (h *rowTable) keyOf(t rel.Tuple, cols []int) uint64 {
	if len(cols) == 1 {
		return uint64(t[cols[0]])
	}
	return h.hash(0, t, cols)
}

// add appends t's cols as a new row (all of t when cols is nil) at the end
// of key k's chain.
func (h *rowTable) add(k uint64, t rel.Tuple, cols []int) {
	if cols == nil {
		h.data = append(h.data, t...)
	} else {
		for _, c := range cols {
			h.data = append(h.data, t[c])
		}
	}
	i := int32(len(h.next))
	h.next = append(h.next, -1)
	if c, ok := h.index[k]; ok {
		h.next[c.tail] = i
		c.tail = i
		h.index[k] = c
	} else {
		h.index[k] = rowChain{i, i}
	}
}

// addNew adds t's cols as a row unless an equal row is already stored, and
// reports whether it added one.
func (h *rowTable) addNew(t rel.Tuple, cols []int) bool {
	k := h.keyOf(t, cols)
	if h.first(k, t, cols) >= 0 {
		return false
	}
	h.add(k, t, cols)
	return true
}

// first returns the first row, in arrival order, whose key columns equal
// t's cols (k being their key), or -1.
func (h *rowTable) first(k uint64, t rel.Tuple, cols []int) int32 {
	c, ok := h.index[k]
	if !ok {
		return -1
	}
	return h.match(c.head, t, cols)
}

// after returns the next row after i that first or after returned for the
// same t and cols, or -1.
func (h *rowTable) after(i int32, t rel.Tuple, cols []int) int32 {
	return h.match(h.next[i], t, cols)
}

// match returns the first row from i on along its chain whose key columns
// equal t's cols, or -1.
func (h *rowTable) match(i int32, t rel.Tuple, cols []int) int32 {
	if len(cols) == 1 {
		return i
	}
	for ; i >= 0; i = h.next[i] {
		r := h.row(i)
		eq := true
		for j, c := range cols {
			if r[h.key[j]] != t[c] {
				eq = false
				break
			}
		}
		if eq {
			return i
		}
	}
	return -1
}

// row returns stored row i. It aliases the table; callers copy out of it.
func (h *rowTable) row(i int32) []int64 {
	off := int(i) * h.arity
	return h.data[off : off+h.arity]
}
