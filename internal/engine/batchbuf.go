package engine

import (
	"sync"

	"parajoin/internal/rel"
)

// batchBufs recycles the flat arrays that operators, shuffles and receive
// queues fill batch after batch (of *[]int64). Each user keeps one array
// for the life of an operator, exchange or queue; pooling them lets the
// next query reuse that storage instead of growing its own.
var batchBufs sync.Pool

// getBatchBuf returns an empty row block of the given arity with room for
// n rows, reusing a pooled array when one is large enough.
func getBatchBuf(arity, n int) rel.Rows {
	need := arity * n
	if p, ok := batchBufs.Get().(*[]int64); ok && cap(*p) >= need {
		return rel.Rows{Arity: arity, Data: (*p)[:0]}
	}
	return rel.Rows{Arity: arity, Data: make([]int64, 0, need)}
}

// concatRows copies parts into one array of the exact total size and
// returns the parts' arrays to the pool.
func concatRows(arity int, parts []rel.Rows) rel.Rows {
	out := rel.Rows{Arity: arity}
	size := 0
	for _, p := range parts {
		out.N += p.N
		size += len(p.Data)
	}
	if size > 0 {
		out.Data = make([]int64, 0, size)
	}
	for i := range parts {
		out.Data = append(out.Data, parts[i].Data...)
		putBatchBuf(&parts[i])
	}
	return out
}

// putBatchBuf returns r's array to the pool and clears r, which must not
// be used for rows any more.
func putBatchBuf(r *rel.Rows) {
	if cap(r.Data) > 0 {
		d := r.Data[:0]
		batchBufs.Put(&d)
	}
	*r = rel.Rows{Arity: r.Arity}
}
