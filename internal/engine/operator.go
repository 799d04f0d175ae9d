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

// operator is the runtime iterator all plan nodes compile to. Next returns
// io.EOF after the last batch.
type operator interface {
	schema() rel.Schema
	open() error
	next() ([]rel.Tuple, error)
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
}

func (o *scanOp) schema() rel.Schema { return o.sch }

func (o *scanOp) open() error {
	frag := o.t.ex.fragment(o.t.worker, o.table)
	if frag == nil {
		return fmt.Errorf("engine: worker %d has no fragment of %q", o.t.worker, o.table)
	}
	o.rows = frag.Tuples
	return nil
}

func (o *scanOp) next() ([]rel.Tuple, error) {
	if o.pos >= len(o.rows) {
		return nil, io.EOF
	}
	end := o.pos + o.t.ex.batchSize
	if end > len(o.rows) {
		end = len(o.rows)
	}
	b := o.rows[o.pos:end]
	o.pos = end
	o.t.ex.metrics.addProcessed(o.t.worker, int64(len(b)))
	return b, nil
}

func (o *scanOp) close() error { return nil }

// ---------------------------------------------------------------- select

type selectOp struct {
	in      operator
	sch     rel.Schema
	filters []compiledFilter
}

type compiledFilter struct {
	left  int
	op    core.CmpOp
	right int // column index, or -1 for constant
	c     int64
}

func (o *selectOp) schema() rel.Schema { return o.sch }
func (o *selectOp) open() error        { return o.in.open() }
func (o *selectOp) close() error       { return o.in.close() }

func (o *selectOp) next() ([]rel.Tuple, error) {
	for {
		b, err := o.in.next()
		if err != nil {
			return nil, err
		}
		out := b[:0:0]
		for _, t := range b {
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
				out = append(out, t)
			}
		}
		if len(out) > 0 {
			return out, nil
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
	out   rowArena
}

func (o *projectOp) schema() rel.Schema { return o.sch }

func (o *projectOp) open() error {
	if o.dedup {
		o.seen = newRowTable(len(o.cols), identityCols(len(o.cols)))
	}
	o.out.arity = len(o.cols)
	return o.in.open()
}

func (o *projectOp) close() error { return o.in.close() }

func (o *projectOp) next() ([]rel.Tuple, error) {
	for {
		b, err := o.in.next()
		if err != nil {
			return nil, err
		}
		for i, t := range b {
			if o.dedup {
				if !o.seen.addNew(t, o.cols) {
					continue
				}
				if err := o.t.ex.charge(o.t.worker, 1, "project-dedup"); err != nil {
					return nil, err
				}
			}
			p := o.out.alloc(len(b) - i)
			for j, c := range o.cols {
				p[j] = t[c]
			}
		}
		if out := o.out.take(); len(out) > 0 {
			return out, nil
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
	out            rowArena

	cur      []rel.Tuple // input batch being joined
	curSide  int         // side cur came from: 0 = left, 1 = right
	pos      int         // row of cur being joined
	inserted bool        // cur[pos] is in its table and link is set
	link     int32       // next matching row of the other table, or -1

	turn         int // 0 = pull left next, 1 = right
	lDone, rDone bool
}

func (o *hashJoinOp) schema() rel.Schema { return o.sch }

func (o *hashJoinOp) open() error {
	o.lTable = newRowTable(len(o.left.schema()), o.lCols)
	o.rTable = newRowTable(len(o.right.schema()), o.rCols)
	o.out.arity = len(o.sch)
	if err := o.left.open(); err != nil {
		return err
	}
	return o.right.open()
}

func (o *hashJoinOp) close() error {
	err1 := o.left.close()
	err2 := o.right.close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (o *hashJoinOp) next() ([]rel.Tuple, error) {
	bs := o.t.ex.batchSize
	for {
		if o.pos < len(o.cur) {
			t0 := time.Now()
			full := o.probe(bs)
			o.t.ex.metrics.addJoin(o.t.worker, time.Since(t0))
			if full {
				return o.out.take(), nil
			}
		}
		if o.lDone && o.rDone {
			if out := o.out.take(); len(out) > 0 {
				return out, nil
			}
			return nil, io.EOF
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
			return nil, err
		}
		if err := o.t.ex.charge(o.t.worker, int64(len(b)), "hashjoin"); err != nil {
			return nil, err
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
	for ; o.pos < len(o.cur); o.pos, o.inserted = o.pos+1, false {
		t := o.cur[o.pos]
		if !o.inserted {
			k := own.keyOf(t, cols)
			own.add(k, t, nil)
			o.link = other.first(k, t, cols)
			o.inserted = true
		}
		for ; o.link >= 0; o.link = other.after(o.link, t, cols) {
			if len(o.out.rows) == bs {
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
	o.cur = nil
	return len(o.out.rows) == bs
}

func (o *hashJoinOp) emit(left, right []int64) {
	row := o.out.alloc(o.t.ex.batchSize)
	n := copy(row, left)
	for j, c := range o.rKeep {
		row[n+j] = right[c]
	}
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
	// (sub-)join in range order, and handed out as row views. part and
	// row locate the next row; left counts the rows not yet handed out.
	results []ljoin.Rows
	part    int
	row     int
	left    int
	// Spilled path.
	stream spill.Stream
}

func (o *tributaryOp) schema() rel.Schema { return o.sch }

func (o *tributaryOp) open() error {
	if o.t.ex.spillEnabled() {
		return o.openSpilled()
	}
	rels := make(map[string]*rel.Relation, len(o.inputs))
	for alias, in := range o.inputs {
		if err := in.open(); err != nil {
			return err
		}
		r := &rel.Relation{Name: alias, Schema: in.schema().Clone()}
		for {
			b, err := in.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := o.t.ex.charge(o.t.worker, int64(len(b)), "tributary-input("+alias+")"); err != nil {
				return err
			}
			r.Tuples = append(r.Tuples, b...)
		}
		if err := in.close(); err != nil {
			return err
		}
		rels[alias] = r
	}

	var inputTuples int64
	for _, r := range rels {
		inputTuples += int64(r.Cardinality())
	}
	sortStart := time.Now()
	p, err := ljoin.Prepare(o.q, rels, o.order, o.mode)
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
		o.results = make([]ljoin.Rows, 1)
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
func (o *tributaryOp) collect(p *ljoin.Prepared, res *ljoin.Rows) error {
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
	atoms := make(map[string]core.Atom, len(o.q.Atoms))
	for _, a := range o.q.Atoms {
		atoms[a.Alias] = a
	}
	aliases := make([]string, 0, len(o.inputs))
	for alias := range o.inputs {
		aliases = append(aliases, alias)
	}
	sort.Strings(aliases)

	var inputTuples int64
	sortStart := time.Now()
	rels := make(map[string]ljoin.Rows, len(o.inputs))
	for _, alias := range aliases {
		in := o.inputs[alias]
		atom, ok := atoms[alias]
		if !ok {
			return fmt.Errorf("engine: tributary input %q matches no atom of %s", alias, o.q.Name)
		}
		if err := in.open(); err != nil {
			return err
		}
		sch := in.schema()
		if len(sch) != len(atom.Terms) {
			return fmt.Errorf("engine: atom %s has %d terms but input %s has arity %d",
				atom, len(atom.Terms), alias, len(sch))
		}
		norm := ljoin.NewNormalizer(atom, o.order)
		r := ljoin.Rows{Arity: norm.Arity()}
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
				inputTuples += int64(len(b))
				for _, t := range b {
					if _, ok := norm.Apply(t); ok {
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
				inputTuples += int64(len(b))
				for _, t := range b {
					nt, ok := norm.Apply(t)
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

	p, err := ljoin.PrepareSorted(o.q, rels, o.order, o.mode)
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

func (o *tributaryOp) next() ([]rel.Tuple, error) {
	if o.stream != nil {
		b := make([]rel.Tuple, 0, o.t.ex.batchSize)
		for len(b) < o.t.ex.batchSize {
			t, err := o.stream.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			b = append(b, t)
		}
		if len(b) == 0 {
			return nil, io.EOF
		}
		return b, nil
	}
	if o.left == 0 {
		return nil, io.EOF
	}
	b := make([]rel.Tuple, 0, min(o.t.ex.batchSize, o.left))
	for len(b) < cap(b) {
		res := &o.results[o.part]
		if o.row == res.N {
			o.part, o.row = o.part+1, 0
			continue
		}
		b = append(b, res.Row(o.row))
		o.row++
	}
	o.left -= len(b)
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

func (o *recvOp) next() ([]rel.Tuple, error) {
	start := time.Now()
	b, ok, err := o.t.ex.transport.Recv(o.t.ex.ctx, o.t.ex.wireID(o.exchange), o.t.worker)
	o.t.wait += time.Since(start)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, io.EOF
	}
	o.t.ex.metrics.addReceived(o.exchange, o.t.worker, int64(len(b)))
	o.t.ex.metrics.addProcessed(o.t.worker, int64(len(b)))
	return b, nil
}
