package engine

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"parajoin/internal/rel"
	"parajoin/internal/spill"
)

// batchesOp replays a fixed sequence of input batches, calling first (if
// set) before handing out the first one.
type batchesOp struct {
	sch     rel.Schema
	batches []rel.Rows
	i       int
	first   func()
}

// flatBatches lays each batch out flat, with the given arity.
func flatBatches(arity int, bs [][]rel.Tuple) []rel.Rows {
	out := make([]rel.Rows, len(bs))
	for i, b := range bs {
		out[i] = rel.FlatRows(arity, b)
	}
	return out
}

func (o *batchesOp) schema() rel.Schema { return o.sch }
func (o *batchesOp) open() error        { return nil }
func (o *batchesOp) close() error       { return nil }

func (o *batchesOp) next() (rel.Rows, error) {
	if o.first != nil {
		o.first()
		o.first = nil
	}
	if o.i == len(o.batches) {
		return rel.Rows{}, io.EOF
	}
	b := o.batches[o.i]
	o.i++
	return b, nil
}

// opTask is a one-worker task with an unlimited tuple budget, for driving
// single operators directly.
func opTask(batchSize int) *task {
	return &task{ex: &exec{
		metrics:   NewMetrics(1),
		batchSize: batchSize,
		acct:      spill.NewAccountant(1, 0, 0),
		ctx:       context.Background(),
	}}
}

func colNames(prefix string, n int) rel.Schema {
	s := make(rel.Schema, n)
	for i := range s {
		s[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return s
}

// drain pulls op to EOF and returns copies of its batches (a batch is
// only valid until the next call).
func drain(t *testing.T, op operator) [][]rel.Tuple {
	t.Helper()
	var out [][]rel.Tuple
	for {
		b, err := op.next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		b.Data = slices.Clone(b.Data)
		out = append(out, b.AppendTuples(nil))
	}
}

// drainCount pulls op to EOF and returns its batch count, copying nothing.
func drainCount(t *testing.T, op operator) int {
	t.Helper()
	n := 0
	for {
		_, err := op.next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// randBatches splits n random rows of the given arity, values in [0, vals),
// into batches of 0 to 6 rows.
func randBatches(rng *rand.Rand, n, arity int, vals int64) [][]rel.Tuple {
	var bs [][]rel.Tuple
	for n > 0 {
		k := min(rng.Intn(7), n)
		b := make([]rel.Tuple, k)
		for i := range b {
			b[i] = make(rel.Tuple, arity)
			for j := range b[i] {
				b[i][j] = rng.Int63n(vals)
			}
		}
		bs = append(bs, b)
		n -= k
	}
	return bs
}

// packKey is the packed-bytes map key of the map-of-slices reference.
func packKey(t rel.Tuple, cols []int) string {
	buf := make([]byte, 0, 8*len(cols))
	for _, c := range cols {
		v := uint64(t[c])
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(v>>s))
		}
	}
	return string(buf)
}

// refHashJoin is the map-of-slices symmetric hash join the row tables
// replaced: it pulls the same round-robin batch sequence, inserts each
// tuple and emits its matches in insertion order.
func refHashJoin(left, right [][]rel.Tuple, lCols, rCols, rKeep []int) []rel.Tuple {
	lTable := map[string][]rel.Tuple{}
	rTable := map[string][]rel.Tuple{}
	var out []rel.Tuple
	emit := func(l, r rel.Tuple) {
		row := append(rel.Tuple{}, l...)
		for _, c := range rKeep {
			row = append(row, r[c])
		}
		out = append(out, row)
	}
	li, ri, turn := 0, 0, 0
	lDone, rDone := false, false
	for !lDone || !rDone {
		side := turn
		if side == 0 && lDone {
			side = 1
		}
		if side == 1 && rDone {
			side = 0
		}
		turn = 1 - side
		if side == 0 {
			if li == len(left) {
				lDone = true
				continue
			}
			for _, t := range left[li] {
				k := packKey(t, lCols)
				lTable[k] = append(lTable[k], t)
				for _, m := range rTable[k] {
					emit(t, m)
				}
			}
			li++
		} else {
			if ri == len(right) {
				rDone = true
				continue
			}
			for _, t := range right[ri] {
				k := packKey(t, rCols)
				rTable[k] = append(rTable[k], t)
				for _, m := range lTable[k] {
					emit(m, t)
				}
			}
			ri++
		}
	}
	return out
}

// collide forces every multi-column key onto one chain.
func collide(uint64, rel.Tuple, []int) uint64 { return 42 }

func sameRows(got, want []rel.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

func flatten(bs [][]rel.Tuple) []rel.Tuple {
	var out []rel.Tuple
	for _, b := range bs {
		out = append(out, b...)
	}
	return out
}

// TestHashJoinMatchesMapReference requires the row-table hash join to emit
// exactly the map-of-slices join's row sequence, in full batches, for 1- to
// 3-column keys with duplicate keys and with every multi-column key forced
// onto one hash chain.
func TestHashJoinMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		nKey := 1 + iter%3
		lArity, rArity := nKey+rng.Intn(2), nKey+rng.Intn(3)
		lCols, rCols := rng.Perm(lArity)[:nKey], rng.Perm(rArity)[:nKey]
		keyed := map[int]bool{}
		for _, c := range rCols {
			keyed[c] = true
		}
		var rKeep []int
		for c := 0; c < rArity; c++ {
			if !keyed[c] {
				rKeep = append(rKeep, c)
			}
		}
		left := randBatches(rng, rng.Intn(40), lArity, 3)
		right := randBatches(rng, rng.Intn(40), rArity, 3)
		want := refHashJoin(left, right, lCols, rCols, rKeep)

		for _, forced := range []bool{false, true} {
			bs := 1 + rng.Intn(8)
			op := &hashJoinOp{
				t:     opTask(bs),
				left:  &batchesOp{sch: colNames("l", lArity), batches: flatBatches(lArity, left)},
				right: &batchesOp{sch: colNames("r", rArity), batches: flatBatches(rArity, right)},
				lCols: lCols, rCols: rCols, rKeep: rKeep,
				sch: make(rel.Schema, lArity+len(rKeep)),
			}
			if err := op.open(); err != nil {
				t.Fatal(err)
			}
			if forced {
				op.lTable.hash, op.rTable.hash = collide, collide
			}
			got := drain(t, op)
			name := fmt.Sprintf("iter %d (keys %v/%v, batch %d, forced collisions %v)", iter, lCols, rCols, bs, forced)
			if err := sameRows(flatten(got), want); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, b := range got {
				if len(b) > bs || (len(b) < bs && i < len(got)-1) || len(b) == 0 {
					t.Fatalf("%s: batch %d of %d has %d rows", name, i, len(got), len(b))
				}
			}
			var inputs int64
			for _, b := range append(append([][]rel.Tuple{}, left...), right...) {
				inputs += int64(len(b))
			}
			if used := op.t.ex.acct.Used(0); used != inputs {
				t.Fatalf("%s: charged %d tuples, want one per input tuple (%d)", name, used, inputs)
			}
		}
	}
}

// TestSemiJoinMatchesMapReference checks the row-table semijoin against a
// packed-key set, batch by batch, including forced hash collisions.
func TestSemiJoinMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 150; iter++ {
		nKey := 1 + iter%3
		lArity, rArity := nKey+rng.Intn(2), nKey+rng.Intn(2)
		lCols, rCols := rng.Perm(lArity)[:nKey], rng.Perm(rArity)[:nKey]
		left := randBatches(rng, rng.Intn(40), lArity, 3)
		right := randBatches(rng, rng.Intn(40), rArity, 3)

		keys := map[string]bool{}
		for _, b := range right {
			for _, t := range b {
				keys[packKey(t, rCols)] = true
			}
		}
		var want [][]rel.Tuple
		for _, b := range left {
			var kept []rel.Tuple
			for _, t := range b {
				if keys[packKey(t, lCols)] {
					kept = append(kept, t)
				}
			}
			if len(kept) > 0 {
				want = append(want, kept)
			}
		}

		for _, forced := range []bool{false, true} {
			rightOp := &batchesOp{sch: colNames("r", rArity), batches: flatBatches(rArity, right)}
			op := &semiJoinOp{
				t:     opTask(1024),
				sch:   colNames("l", lArity),
				left:  &batchesOp{sch: colNames("l", lArity), batches: flatBatches(lArity, left)},
				right: rightOp,
				lCols: lCols, rCols: rCols,
			}
			if forced {
				// open drains the right side into a fresh table: swap
				// the hash in before the first key goes in.
				rightOp.first = func() { op.keys.hash = collide }
			}
			if err := op.open(); err != nil {
				t.Fatal(err)
			}
			got := drain(t, op)
			name := fmt.Sprintf("iter %d (keys %v/%v, forced collisions %v)", iter, lCols, rCols, forced)
			if len(got) != len(want) {
				t.Fatalf("%s: %d batches, want %d", name, len(got), len(want))
			}
			for i := range got {
				if err := sameRows(got[i], want[i]); err != nil {
					t.Fatalf("%s: batch %d: %v", name, i, err)
				}
			}
			if used := op.t.ex.acct.Used(0); used != int64(len(keys)) {
				t.Fatalf("%s: charged %d tuples, want one per distinct key (%d)", name, used, len(keys))
			}
		}
	}
}

// TestDedupProjectMatchesMapReference checks the row-table dedup projection
// against a packed-key set, batch by batch, including forced hash
// collisions.
func TestDedupProjectMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 150; iter++ {
		arity := 2 + rng.Intn(3)
		cols := rng.Perm(arity)[:min(1+iter%3, arity)]
		in := randBatches(rng, rng.Intn(60), arity, 3)

		seen := map[string]bool{}
		var want [][]rel.Tuple
		for _, b := range in {
			var kept []rel.Tuple
			for _, t := range b {
				if k := packKey(t, cols); !seen[k] {
					seen[k] = true
					kept = append(kept, t.Project(cols))
				}
			}
			if len(kept) > 0 {
				want = append(want, kept)
			}
		}

		for _, forced := range []bool{false, true} {
			op := &projectOp{
				t:   opTask(1024),
				in:  &batchesOp{sch: colNames("c", arity), batches: flatBatches(arity, in)},
				sch: colNames("p", len(cols)), cols: cols, dedup: true,
			}
			if err := op.open(); err != nil {
				t.Fatal(err)
			}
			if forced {
				op.seen.hash = collide
			}
			got := drain(t, op)
			name := fmt.Sprintf("iter %d (cols %v, forced collisions %v)", iter, cols, forced)
			if len(got) != len(want) {
				t.Fatalf("%s: %d batches, want %d", name, len(got), len(want))
			}
			for i := range got {
				if err := sameRows(got[i], want[i]); err != nil {
					t.Fatalf("%s: batch %d: %v", name, i, err)
				}
			}
			if used := op.t.ex.acct.Used(0); used != int64(len(seen)) {
				t.Fatalf("%s: charged %d tuples, want one per distinct row (%d)", name, used, len(seen))
			}
		}
	}
}

// hotKeyJoin joins nLeft left rows against right batches that all share
// one key, with output batches of at most bs rows.
func hotKeyJoin(bs, nLeft int, right [][]rel.Tuple) *hashJoinOp {
	left := make([]rel.Tuple, nLeft)
	for i := range left {
		left[i] = rel.Tuple{1, int64(i)}
	}
	return &hashJoinOp{
		t:     opTask(bs),
		left:  &batchesOp{sch: rel.Schema{"k", "a"}, batches: flatBatches(2, [][]rel.Tuple{left})},
		right: &batchesOp{sch: rel.Schema{"k", "b"}, batches: flatBatches(2, right)},
		lCols: []int{0}, rCols: []int{0}, rKeep: []int{1},
		sch: rel.Schema{"k", "a", "b"},
	}
}

// keyBatches returns n batches of size rows each, all on key 1.
func keyBatches(n, size int) [][]rel.Tuple {
	bs := make([][]rel.Tuple, n)
	for i := range bs {
		bs[i] = make([]rel.Tuple, size)
		for j := range bs[i] {
			bs[i][j] = rel.Tuple{1, int64(i*size + j)}
		}
	}
	return bs
}

// TestHashJoinHotKeyBatchBound joins 1000 x 1000 rows on a single key:
// the million results must come out in batches of at most BatchSize rows,
// and the first batch must come out before the key's whole match set is
// built (which would take tens of megabytes).
func TestHashJoinHotKeyBatchBound(t *testing.T) {
	const bs, n = 64, 1000
	op := hotKeyJoin(bs, n, keyBatches(1, n))
	if err := op.open(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := op.next()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("first batch allocated %d bytes: the join buffered its output", grew)
	}
	rows := 0
	for {
		if b.N > bs {
			t.Fatalf("batch of %d rows exceeds BatchSize %d", b.N, bs)
		}
		rows += b.N
		if b, err = op.next(); err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if rows != n*n {
		t.Fatalf("%d rows, want %d", rows, n*n)
	}
}

// TestHashJoinAllocsPerBatch pins the per-batch output arena: with every
// output batch full, a join allocates about two objects per batch (plus
// the tables' amortized growth) whether batches hold 8 rows or 512.
func TestHashJoinAllocsPerBatch(t *testing.T) {
	const batches = 128
	perBatch := func(bs int) float64 {
		right := keyBatches(batches, bs)
		const runs = 3
		var ops []*hashJoinOp
		for i := 0; i <= runs; i++ { // AllocsPerRun adds one warm-up call
			ops = append(ops, hotKeyJoin(bs, 1, right))
		}
		n := testing.AllocsPerRun(runs, func() {
			op := ops[0]
			ops = ops[1:]
			if err := op.open(); err != nil {
				t.Fatal(err)
			}
			if got := drainCount(t, op); got != batches {
				t.Fatalf("%d output batches, want %d", got, batches)
			}
		})
		return n / batches
	}
	small, large := perBatch(8), perBatch(512)
	t.Logf("allocations per output batch: %.2f at 8 rows, %.2f at 512 rows", small, large)
	if small > 3 || large > 3 {
		t.Fatalf("allocations per output batch %.2f (8 rows), %.2f (512 rows): want at most 3", small, large)
	}
}
