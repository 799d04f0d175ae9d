package engine

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"parajoin/internal/core"
	"parajoin/internal/ljoin"
	"parajoin/internal/rel"
	"parajoin/internal/spill"
	"parajoin/internal/trace"
)

// ErrOutOfMemory is returned when a worker's materialized state exceeds the
// cluster's MaxLocalTuples budget — the condition reported as FAIL for
// RS_TJ on Q4 and Q5 in the paper.
var ErrOutOfMemory = errors.New("engine: worker memory budget exceeded")

// operator is the runtime iterator all plan nodes compile to. next returns
// io.EOF after the last batch.
//
// A batch is a flat row block and is borrowed: it stays valid only until
// the producer's next call to next or close, because producers write their
// batches into reused per-operator buffers (or hand out views of state
// they own). A consumer that keeps rows past that point copies them.
type operator interface {
	schema() rel.Schema
	open() error
	next() (rel.Rows, error)
	close() error
}

// task groups the per-task state operators need: the worker, the run-wide
// executor, the exchange tree the task drains (-1 for the root tree), a
// postorder operator-id counter for tracing, and the wait accumulator used
// to subtract transport stalls from busy time.
type task struct {
	ex       *exec
	worker   int
	exchange int
	opSeq    int
	wait     time.Duration
}

// ---------------------------------------------------------------- scan

type scanOp struct {
	t     *task
	table string
	sch   rel.Schema
	rows  []rel.Tuple
	pos   int
	out   rel.Rows
}

func (o *scanOp) schema() rel.Schema { return o.sch }

func (o *scanOp) open() error {
	frag := o.t.ex.fragment(o.t.worker, o.table)
	if frag == nil {
		return fmt.Errorf("engine: worker %d has no fragment of %q", o.t.worker, o.table)
	}
	o.rows = frag.Tuples
	o.out = getBatchBuf(len(o.sch), min(o.t.ex.batchSize, len(o.rows)))
	return nil
}

// next copies the next batch of the fragment's tuples into the flat
// buffer: base fragments are the one tuple-slice input of the pipeline.
func (o *scanOp) next() (rel.Rows, error) {
	if o.pos >= len(o.rows) {
		return rel.Rows{}, io.EOF
	}
	end := min(o.pos+o.t.ex.batchSize, len(o.rows))
	o.out.Reset()
	for _, t := range o.rows[o.pos:end] {
		o.out.Append(t)
	}
	o.pos = end
	o.t.ex.metrics.addProcessed(o.t.worker, int64(o.out.N))
	return o.out, nil
}

func (o *scanOp) close() error {
	putBatchBuf(&o.out)
	return nil
}

// ---------------------------------------------------------------- select

type compiledFilter struct {
	left  int
	op    core.CmpOp
	right int // column index, or -1 for constant
	c     int64
}

type selectOp struct {
	t       *task
	in      operator
	sch     rel.Schema
	filters []compiledFilter
	out     rel.Rows
}

func (o *selectOp) schema() rel.Schema { return o.sch }

func (o *selectOp) open() error {
	o.out = getBatchBuf(len(o.sch), o.t.ex.batchSize)
	return o.in.open()
}

func (o *selectOp) close() error {
	putBatchBuf(&o.out)
	return o.in.close()
}

func (o *selectOp) next() (rel.Rows, error) {
	for {
		b, err := o.in.next()
		if err != nil {
			return rel.Rows{}, err
		}
		o.out.Reset()
		for i := 0; i < b.N; i++ {
			t := b.Row(i)
			keep := true
			for _, f := range o.filters {
				right := f.c
				if f.right >= 0 {
					right = t[f.right]
				}
				if !f.op.Eval(t[f.left], right) {
					keep = false
					break
				}
			}
			if keep {
				o.out.Append(t)
			}
		}
		if o.out.N > 0 {
			return o.out, nil
		}
	}
}

// ---------------------------------------------------------------- project

type projectOp struct {
	t     *task
	in    operator
	sch   rel.Schema
	cols  []int
	dedup bool
	seen  *rowTable // projected rows emitted so far, when deduplicating
	out   rel.Rows
}

func (o *projectOp) schema() rel.Schema { return o.sch }

func (o *projectOp) open() error {
	if o.dedup {
		o.seen = newRowTable(len(o.cols), identityCols(len(o.cols)))
	}
	o.out = getBatchBuf(len(o.cols), o.t.ex.batchSize)
	return o.in.open()
}

func (o *projectOp) close() error {
	putBatchBuf(&o.out)
	return o.in.close()
}

func (o *projectOp) next() (rel.Rows, error) {
	for {
		b, err := o.in.next()
		if err != nil {
			return rel.Rows{}, err
		}
		o.out.Reset()
		for i := 0; i < b.N; i++ {
			t := b.Row(i)
			if o.dedup {
				if !o.seen.addNew(t, o.cols) {
					continue
				}
				if err := o.t.ex.charge(o.t.worker, 1, "project-dedup"); err != nil {
					return rel.Rows{}, err
				}
			}
			for _, c := range o.cols {
				o.out.Data = append(o.out.Data, t[c])
			}
			o.out.N++
		}
		if o.out.N > 0 {
			return o.out, nil
		}
	}
}

// ---------------------------------------------------------------- hash join

// hashJoinOp is the symmetric (pipelined) hash join: a row table on each
// side, each arriving tuple inserted into its side's table and then matched
// against the other side's rows for its key, in insertion order. Inputs are
// pulled a batch at a time round-robin; when one side is exhausted the
// other is drained — the paper's "if one input does not have any data, the
// join pulls the other input".
//
// next is a resumable probe cursor over the current input batch (cur, pos)
// and the other table's chain (link): it stops as soon as one output batch
// is full, so pending output never exceeds a batch however hot a key is.
type hashJoinOp struct {
	t            *task
	left, right  operator
	lCols, rCols []int
	sch          rel.Schema
	rKeep        []int

	lTable, rTable *rowTable
	out            rel.Rows

	// cur is the input batch being joined. It is borrowed from its input,
	// which is not pulled again until cur is done.
	cur      rel.Rows
	curSide  int   // side cur came from: 0 = left, 1 = right
	pos      int   // row of cur being joined
	inserted bool  // row pos of cur is in its table and link is set
	link     int32 // next matching row of the other table, or -1

	turn         int // 0 = pull left next, 1 = right
	lDone, rDone bool
}

func (o *hashJoinOp) schema() rel.Schema { return o.sch }

func (o *hashJoinOp) open() error {
	o.lTable = newRowTable(len(o.left.schema()), o.lCols)
	o.rTable = newRowTable(len(o.right.schema()), o.rCols)
	o.out = getBatchBuf(len(o.sch), o.t.ex.batchSize)
	if err := o.left.open(); err != nil {
		return err
	}
	return o.right.open()
}

func (o *hashJoinOp) close() error {
	putBatchBuf(&o.out)
	err1 := o.left.close()
	err2 := o.right.close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (o *hashJoinOp) next() (rel.Rows, error) {
	bs := o.t.ex.batchSize
	o.out.Reset()
	for {
		if o.pos < o.cur.N {
			t0 := time.Now()
			full := o.probe(bs)
			o.t.ex.metrics.addJoin(o.t.worker, time.Since(t0))
			if full {
				return o.out, nil
			}
		}
		if o.lDone && o.rDone {
			if o.out.N > 0 {
				return o.out, nil
			}
			return rel.Rows{}, io.EOF
		}
		side := o.turn
		if side == 0 && o.lDone {
			side = 1
		}
		if side == 1 && o.rDone {
			side = 0
		}
		o.turn = 1 - side

		in := o.left
		if side == 1 {
			in = o.right
		}
		b, err := in.next()
		if err == io.EOF {
			if side == 0 {
				o.lDone = true
			} else {
				o.rDone = true
			}
			continue
		}
		if err != nil {
			return rel.Rows{}, err
		}
		if err := o.t.ex.charge(o.t.worker, int64(b.N), "hashjoin"); err != nil {
			return rel.Rows{}, err
		}
		o.cur, o.curSide, o.pos, o.inserted = b, side, 0, false
	}
}

// probe advances the cursor through cur, inserting each tuple into its
// side's table and emitting its matches, until cur is done or the output
// batch holds bs rows; it reports the latter.
func (o *hashJoinOp) probe(bs int) bool {
	own, other, cols := o.lTable, o.rTable, o.lCols
	if o.curSide == 1 {
		own, other, cols = o.rTable, o.lTable, o.rCols
	}
	for ; o.pos < o.cur.N; o.pos, o.inserted = o.pos+1, false {
		t := o.cur.Row(o.pos)
		if !o.inserted {
			k := own.keyOf(t, cols)
			own.add(k, t, nil)
			o.link = other.first(k, t, cols)
			o.inserted = true
		}
		for ; o.link >= 0; o.link = other.after(o.link, t, cols) {
			if o.out.N == bs {
				return true
			}
			m := other.row(o.link)
			if o.curSide == 0 {
				o.emit(t, m)
			} else {
				o.emit(m, t)
			}
		}
	}
	o.cur = rel.Rows{}
	return o.out.N == bs
}

func (o *hashJoinOp) emit(left, right []int64) {
	o.out.Data = append(o.out.Data, left...)
	for _, c := range o.rKeep {
		o.out.Data = append(o.out.Data, right[c])
	}
	o.out.N++
}

// ---------------------------------------------------------------- tributary

// tributaryOp materializes its inputs (the post-shuffle fragments of every
// atom), sorts them (metered as sort time), runs the Tributary join
// (metered as join time), and streams the result. With spilling enabled
// the inputs go through an external merge sort and the result through a
// spillable buffer, so the working set is bounded by the run's budget.
type tributaryOp struct {
	t      *task
	q      *core.Query
	inputs map[string]operator
	order  []core.Var
	mode   ljoin.SeekMode
	sch    rel.Schema

	// In-memory path: the result rows, appended flat to one arena per
	// (sub-)join in range order, and handed out as sub-slices of those
	// arenas. part and row locate the next row; left counts the rows not
	// yet handed out.
	results []rel.Rows
	part    int
	row     int
	left    int
	// Spilled path: the result stream, copied out a batch at a time.
	stream spill.Stream
	out    rel.Rows
}

func (o *tributaryOp) schema() rel.Schema { return o.sch }

func (o *tributaryOp) open() error {
	if o.t.ex.spillEnabled() {
		return o.openSpilled()
	}
	// Each input batch is normalized straight into its atom's flat array;
	// PrepareFlat then sorts the arrays in place.
	atoms := o.atoms()
	rels := make(map[string]rel.Rows, len(o.inputs))
	var inputTuples int64
	for alias, in := range o.inputs {
		atom, err := o.inputAtom(atoms, alias, in)
		if err != nil {
			return err
		}
		if err := in.open(); err != nil {
			return err
		}
		// Batches are normalized into pooled buffers and then copied
		// once into an array of the exact final size.
		norm := ljoin.NewNormalizer(atom, o.order)
		var parts []rel.Rows
		for {
			b, err := in.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := o.t.ex.charge(o.t.worker, int64(b.N), "tributary-input("+alias+")"); err != nil {
				return err
			}
			inputTuples += int64(b.N)
			part := getBatchBuf(norm.Arity(), b.N)
			norm.AppendRows(&part, b)
			parts = append(parts, part)
		}
		if err := in.close(); err != nil {
			return err
		}
		rels[alias] = concatRows(norm.Arity(), parts)
	}

	sortStart := time.Now()
	p, err := ljoin.PrepareFlat(o.q, rels, o.order, o.mode, false)
	if err != nil {
		return err
	}
	sortDur := time.Since(sortStart)
	o.t.ex.metrics.addSort(o.t.worker, sortDur)
	o.t.ex.metrics.addSorted(o.t.worker, inputTuples)
	o.emitPhase("sort", sortDur, inputTuples)

	joinStart := time.Now()
	var runErr error
	var seeks int64
	if shards := o.shards(p); shards != nil {
		runErr = o.joinParallel(shards)
		seeks = shardSeeks(shards)
	} else {
		o.results = make([]rel.Rows, 1)
		runErr = o.collect(p, &o.results[0])
		seeks = p.Stats().Seeks
	}
	for _, r := range o.results {
		o.left += r.N
	}
	joinDur := time.Since(joinStart)
	o.t.ex.metrics.addJoin(o.t.worker, joinDur)
	o.t.ex.metrics.addSeeks(o.t.worker, seeks)
	o.emitPhase("join", joinDur, int64(o.left))
	if runErr != nil {
		return runErr
	}
	if err := o.t.ex.ctx.Err(); err != nil {
		return err
	}
	return o.t.ex.memErr(o.t.worker)
}

// collect runs one in-memory (sub-)join, appending its rows to res. Rows
// are charged to the worker's tuple budget one by one, as a row-per-tuple
// result would be.
func (o *tributaryOp) collect(p *ljoin.Prepared, res *rel.Rows) error {
	e := o.t.ex
	res.Arity = len(o.sch)
	return p.Run(func(t rel.Tuple) bool {
		if e.charge(o.t.worker, 1, "tributary") != nil {
			return false // stop early; memErr reports the budget breach
		}
		res.Data = append(res.Data, t...)
		res.N++
		// This enumeration can produce a worst-case-size result with no
		// other cancellation point, so poll the run context periodically —
		// deadlines, client cancels, and Close must not wait for it.
		return res.N&0x1fff != 0 || e.ctx.Err() == nil
	})
}

// openSpilled is the bounded-memory open: each input streams through its
// atom's Normalizer into an external merge Sorter (sealed runs go to
// disk under pressure), the k-way-merged stream rebuilds the trie arrays
// as disk-backed state, and the join's output goes through a spillable
// FIFO buffer that next() then streams from. The merged order is
// bit-identical to the in-memory sort, so results match the unlimited
// run exactly.
func (o *tributaryOp) openSpilled() error {
	e := o.t.ex
	atoms := o.atoms()
	aliases := make([]string, 0, len(o.inputs))
	for alias := range o.inputs {
		aliases = append(aliases, alias)
	}
	sort.Strings(aliases)

	var inputTuples int64
	sortStart := time.Now()
	rels := make(map[string]rel.Rows, len(o.inputs))
	for _, alias := range aliases {
		in := o.inputs[alias]
		atom, err := o.inputAtom(atoms, alias, in)
		if err != nil {
			return err
		}
		if err := in.open(); err != nil {
			return err
		}
		norm := ljoin.NewNormalizer(atom, o.order)
		r := rel.Rows{Arity: norm.Arity()}
		if norm.Arity() == 0 {
			// Fully-constant atom: only existence matters, nothing is
			// materialized.
			exists := false
			for {
				b, err := in.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				inputTuples += int64(b.N)
				for i := 0; i < b.N; i++ {
					if _, ok := norm.Apply(b.Row(i)); ok {
						exists = true
					}
				}
			}
			if exists {
				r.N = 1
			}
		} else {
			sorter := spill.NewSorter(e.spillConfig(o.t.worker, norm.Arity(), "sort("+alias+")"))
			for {
				b, err := in.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				inputTuples += int64(b.N)
				for i := 0; i < b.N; i++ {
					nt, ok := norm.Apply(b.Row(i))
					if !ok {
						continue
					}
					if err := sorter.Add(nt); err != nil {
						return e.spillErr(o.t.worker, err)
					}
				}
			}
			stream, err := sorter.Finish()
			if err != nil {
				return err
			}
			// The merged sorted run becomes the trie's backing array. Its
			// spilled part was charged to the disk cap when sealed; the
			// read-back is modeled as a disk-backed index, so it is not
			// re-charged to the tuple budget.
			if r.Data, err = spill.DrainFlat(stream, r.Arity); err != nil {
				return err
			}
			r.N = len(r.Data) / r.Arity
		}
		if err := in.close(); err != nil {
			return err
		}
		rels[alias] = r
	}

	p, err := ljoin.PrepareFlat(o.q, rels, o.order, o.mode, true)
	if err != nil {
		return err
	}
	sortDur := time.Since(sortStart)
	e.metrics.addSort(o.t.worker, sortDur)
	e.metrics.addSorted(o.t.worker, inputTuples)
	o.emitPhase("sort", sortDur, inputTuples)

	joinStart := time.Now()
	if shards := o.shards(p); shards != nil {
		stream, perr := o.joinParallelSpilled(shards)
		joinDur := time.Since(joinStart)
		e.metrics.addJoin(o.t.worker, joinDur)
		e.metrics.addSeeks(o.t.worker, shardSeeks(shards))
		var tuples int64
		if stream != nil {
			tuples = stream.Len()
		}
		o.emitPhase("join", joinDur, tuples)
		if perr != nil {
			return perr
		}
		o.stream = stream
		return nil
	}
	buf := spill.NewBuffer(e.spillConfig(o.t.worker, len(o.sch), "tributary"))
	var addErr error
	var produced int
	var rows rowChunks
	runErr := p.Run(func(t rel.Tuple) bool {
		if addErr = buf.Add(rows.copy(t)); addErr != nil {
			return false
		}
		if produced++; produced&0x1fff == 0 && e.ctx.Err() != nil {
			return false
		}
		return true
	})
	joinDur := time.Since(joinStart)
	e.metrics.addJoin(o.t.worker, joinDur)
	e.metrics.addSeeks(o.t.worker, p.Stats().Seeks)
	o.emitPhase("join", joinDur, buf.Len())
	if runErr != nil {
		return runErr
	}
	if addErr != nil {
		return e.spillErr(o.t.worker, addErr)
	}
	if err := e.ctx.Err(); err != nil {
		return err
	}
	if err := e.memErr(o.t.worker); err != nil {
		return err
	}
	if o.stream, err = buf.Finish(); err != nil {
		return err
	}
	return nil
}

// emitPhase traces one Tributary phase (the per-worker breakdown behind
// the paper's Table 5).
func (o *tributaryOp) emitPhase(name string, d time.Duration, tuples int64) {
	e := o.t.ex
	if !e.tracer.Enabled() {
		return
	}
	e.tracer.Emit(trace.Event{
		Kind: trace.KindPhase, Run: e.epoch, Worker: o.t.worker,
		Exchange: o.t.exchange, Name: name, Tuples: tuples, Dur: d,
	})
}

// atoms maps the query's atom aliases to their atoms.
func (o *tributaryOp) atoms() map[string]core.Atom {
	atoms := make(map[string]core.Atom, len(o.q.Atoms))
	for _, a := range o.q.Atoms {
		atoms[a.Alias] = a
	}
	return atoms
}

// inputAtom returns the atom an input feeds, checking the input's arity
// against the atom's terms.
func (o *tributaryOp) inputAtom(atoms map[string]core.Atom, alias string, in operator) (core.Atom, error) {
	atom, ok := atoms[alias]
	if !ok {
		return core.Atom{}, fmt.Errorf("engine: tributary input %q matches no atom of %s", alias, o.q.Name)
	}
	if n := len(in.schema()); n != len(atom.Terms) {
		return core.Atom{}, fmt.Errorf("engine: atom %s has %d terms but input %s has arity %d",
			atom, len(atom.Terms), alias, n)
	}
	return atom, nil
}

func (o *tributaryOp) next() (rel.Rows, error) {
	bs := o.t.ex.batchSize
	if o.stream != nil {
		if o.out.Data == nil {
			o.out = getBatchBuf(len(o.sch), bs)
		}
		o.out.Reset()
		for o.out.N < bs {
			t, err := o.stream.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return rel.Rows{}, err
			}
			o.out.Append(t)
		}
		if o.out.N == 0 {
			return rel.Rows{}, io.EOF
		}
		return o.out, nil
	}
	if o.left == 0 {
		return rel.Rows{}, io.EOF
	}
	res := &o.results[o.part]
	for o.row == res.N {
		o.part, o.row = o.part+1, 0
		res = &o.results[o.part]
	}
	n := min(bs, res.N-o.row)
	b := res.Slice(o.row, o.row+n)
	o.row += n
	o.left -= n
	return b, nil
}

// rowChunks copies rows into shared fixed-size chunks, so a producer whose
// consumer keeps each row (the spillable buffer) pays one allocation per
// chunk rather than one per row. A chunk stays reachable while any of its
// rows does.
type rowChunks struct{ chunk []int64 }

// rowChunkRows is the number of rows carved from one chunk.
const rowChunkRows = 256

func (c *rowChunks) copy(t rel.Tuple) rel.Tuple {
	if len(c.chunk)+len(t) > cap(c.chunk) {
		c.chunk = make([]int64, 0, rowChunkRows*len(t))
	}
	n := len(c.chunk)
	c.chunk = append(c.chunk, t...)
	return c.chunk[n:len(c.chunk):len(c.chunk)]
}

func (o *tributaryOp) close() error {
	putBatchBuf(&o.out)
	if o.stream != nil {
		return o.stream.Close()
	}
	return nil
}

// ---------------------------------------------------------------- recv

type recvOp struct {
	t        *task
	exchange int
	sch      rel.Schema
}

func (o *recvOp) schema() rel.Schema { return o.sch }
func (o *recvOp) open() error        { return nil }
func (o *recvOp) close() error       { return nil }

// next returns the transport's batch as is: Recv's borrow (valid until
// the next Recv on this exchange and worker) is the operator contract.
func (o *recvOp) next() (rel.Rows, error) {
	start := time.Now()
	b, ok, err := o.t.ex.transport.Recv(o.t.ex.ctx, o.t.ex.wireID(o.exchange), o.t.worker)
	o.t.wait += time.Since(start)
	if err != nil {
		return rel.Rows{}, err
	}
	if !ok {
		return rel.Rows{}, io.EOF
	}
	o.t.ex.metrics.addReceived(o.exchange, o.t.worker, int64(b.N))
	o.t.ex.metrics.addProcessed(o.t.worker, int64(b.N))
	return b, nil
}
