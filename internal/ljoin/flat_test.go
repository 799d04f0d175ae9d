package ljoin

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"parajoin/internal/core"
	"parajoin/internal/rel"
	"parajoin/internal/spill"
)

// randomJoin builds a random conjunctive query over up to four variables —
// two to four atoms of arity one to three, with occasional constants,
// repeated variables, filters and a projecting head — and a small
// duplicate-free relation per atom whose values include negatives.
func randomJoin(rng *rand.Rand) (*core.Query, map[string]*rel.Relation) {
	vars := []string{"a", "b", "c", "d"}[:2+rng.Intn(3)]
	var atoms []core.Atom
	used := map[string]bool{}
	for i := 0; i < 2+rng.Intn(3); i++ {
		terms := make([]core.Term, 1+rng.Intn(3))
		for j := range terms {
			if rng.Intn(8) == 0 {
				terms[j] = core.C(rng.Int63n(4) - 2)
				continue
			}
			v := vars[rng.Intn(len(vars))]
			terms[j] = core.V(v)
			used[v] = true
		}
		atoms = append(atoms, core.NewAtom(fmt.Sprintf("R%d", i), terms...))
	}
	var bound []core.Var
	for _, v := range vars {
		if used[v] {
			bound = append(bound, core.Var(v))
		}
	}
	if len(bound) == 0 {
		atoms = append(atoms, core.NewAtom("Rv", core.V("a")))
		bound = []core.Var{"a"}
	}
	var filters []core.Filter
	if rng.Intn(3) == 0 {
		f := core.Filter{Left: bound[rng.Intn(len(bound))], Op: core.CmpOp(rng.Intn(6))}
		if rng.Intn(2) == 0 {
			f.Right = core.V(string(bound[rng.Intn(len(bound))]))
		} else {
			f.Right = core.C(rng.Int63n(6) - 3)
		}
		filters = append(filters, f)
	}
	var head []core.Var
	if rng.Intn(3) == 0 {
		for _, v := range bound {
			if rng.Intn(2) == 0 {
				head = append(head, v)
			}
		}
	}
	q := core.MustQuery("Q", head, atoms, filters...)
	rels := make(map[string]*rel.Relation, len(q.Atoms))
	for _, a := range q.Atoms {
		cols := make([]string, len(a.Terms))
		for j := range cols {
			cols[j] = fmt.Sprintf("c%d", j)
		}
		r := rel.New(a.Alias, cols...)
		for n := rng.Intn(40); n > 0; n-- {
			row := make(rel.Tuple, len(cols))
			for j := range row {
				row[j] = rng.Int63n(9) - 4
			}
			r.Append(row)
		}
		rels[a.Alias] = r.Dedup()
	}
	return q, rels
}

// spillSorted normalizes every atom's relation through a spill.Sorter
// that seals a run every few tuples, then drains the merged stream into a
// flat array — the engine's bounded-memory path into PrepareFlat.
func spillSorted(t *testing.T, q *core.Query, rels map[string]*rel.Relation, order []core.Var) map[string]rel.Rows {
	t.Helper()
	dir, err := spill.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Remove() })
	acct := spill.NewAccountant(1, 0, 0)
	out := make(map[string]rel.Rows, len(q.Atoms))
	for _, a := range q.Atoms {
		norm := NewNormalizer(a, order)
		r := rel.Rows{Arity: norm.Arity()}
		if norm.Arity() == 0 {
			for _, tp := range rels[a.Alias].Tuples {
				if _, ok := norm.Apply(tp); ok {
					r.N = 1
				}
			}
			out[a.Alias] = r
			continue
		}
		sorter := spill.NewSorter(spill.Config{
			Acct: acct, Arity: norm.Arity(), Create: dir.Create,
			Policy: spill.Always, SealTuples: 3, Label: "test",
		})
		for _, tp := range rels[a.Alias].Tuples {
			if nt, ok := norm.Apply(tp); ok {
				if err := sorter.Add(nt); err != nil {
					t.Fatal(err)
				}
			}
		}
		stream, err := sorter.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if r.Data, err = spill.DrainFlat(stream, r.Arity); err != nil {
			t.Fatal(err)
		}
		r.N = len(r.Data) / r.Arity
		out[a.Alias] = r
	}
	return out
}

// collectRows runs a prepared join and returns its rows in emission order.
func collectRows(t *testing.T, p *Prepared) []rel.Tuple {
	t.Helper()
	var out []rel.Tuple
	if err := p.Run(func(tp rel.Tuple) bool {
		out = append(out, tp.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// runShardsConcurrently splits p into k shards, runs every shard on its
// own goroutine, and concatenates the outputs in range order.
func runShardsConcurrently(t *testing.T, p *Prepared, k int) ([]rel.Tuple, bool) {
	shards := p.Shards(k)
	if shards == nil {
		return nil, false
	}
	outs := make([][]rel.Tuple, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *Prepared) {
			defer wg.Done()
			if err := s.Run(func(tp rel.Tuple) bool {
				outs[i] = append(outs[i], tp.Clone())
				return true
			}); err != nil {
				t.Error(err)
			}
		}(i, s)
	}
	wg.Wait()
	var out []rel.Tuple
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, true
}

// TestBackendsMatchNaiveOnRandomQueries checks every SeekMode and the
// spilled PrepareFlat path against NaiveEvaluate on random queries,
// under random variable orders, and checks that running Shards(k)
// concurrently reproduces each serial row sequence exactly.
func TestBackendsMatchNaiveOnRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		q, rels := randomJoin(rng)
		want, err := NaiveEvaluate(q, rels)
		if err != nil {
			t.Fatal(err)
		}
		order := q.Vars()
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		type variant struct {
			name    string
			prepare func() (*Prepared, error)
		}
		var variants []variant
		for _, mode := range []SeekMode{SeekBinary, SeekGalloping, SeekBTree} {
			variants = append(variants, variant{fmt.Sprintf("mode=%d", mode), func() (*Prepared, error) {
				return Prepare(q, rels, order, mode)
			}})
		}
		sorted := spillSorted(t, q, rels, order)
		variants = append(variants, variant{"spilled", func() (*Prepared, error) {
			return PrepareFlat(q, sorted, order, SeekBinary, true)
		}})

		for _, v := range variants {
			p, err := v.prepare()
			if err != nil {
				t.Fatalf("%s %s: %v", q, v.name, err)
			}
			serial := collectRows(t, p)
			got := &rel.Relation{Schema: want.Schema, Tuples: append([]rel.Tuple(nil), serial...)}
			if !q.IsFull() {
				got.Dedup()
			}
			if !got.Equal(want) {
				t.Fatalf("%s order %v %s: %d rows, naive %d\n got %v\nwant %v",
					q, order, v.name, got.Cardinality(), want.Cardinality(), got.Sort().Tuples, want.Tuples)
			}
			for _, k := range []int{2, 5} {
				p, err := v.prepare()
				if err != nil {
					t.Fatal(err)
				}
				sharded, ok := runShardsConcurrently(t, p, k)
				if ok && !sameRows(sharded, serial) {
					t.Fatalf("%s order %v %s: %d shards emit %d rows, serial %d (or a different sequence)",
						q, order, v.name, k, len(sharded), len(serial))
				}
			}
		}
	}
}

// TestRunAllocationsIndependentOfResults pins the allocation-free join:
// Prepared.Run on a triangle query allocates the same small constant
// whether it emits a handful of rows or tens of thousands.
func TestRunAllocationsIndependentOfResults(t *testing.T) {
	q := triangleQuery()
	order := []core.Var{"x", "y", "z"}
	allocs := func(nodes int) (float64, int64) {
		rels := map[string]*rel.Relation{
			"R": randGraph("R", 3000, nodes, 1),
			"S": randGraph("S", 3000, nodes, 2),
			"T": randGraph("T", 3000, nodes, 3),
		}
		const runs = 5
		var ps []*Prepared
		for i := 0; i <= runs; i++ { // AllocsPerRun adds one warm-up call
			p, err := Prepare(q, rels, order, SeekBinary)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		var results int64
		emit := func(rel.Tuple) bool { results++; return true }
		n := testing.AllocsPerRun(runs, func() {
			p := ps[0]
			ps = ps[1:]
			if err := p.Run(emit); err != nil {
				t.Fatal(err)
			}
		})
		return n, results / (runs + 1)
	}
	fewAllocs, few := allocs(600)
	manyAllocs, many := allocs(40)
	t.Logf("Run allocated %.0f times for %d rows, %.0f for %d rows", fewAllocs, few, manyAllocs, many)
	if many < 100*few || many < 10000 {
		t.Fatalf("inputs too alike: %d vs %d triangles", few, many)
	}
	if manyAllocs != fewAllocs {
		t.Fatalf("Run allocated %.0f times for %d rows but %.0f for %d: allocations grow with the result",
			fewAllocs, few, manyAllocs, many)
	}
	if manyAllocs > 2 {
		t.Errorf("Run allocated %.0f times; want only its two binding buffers", manyAllocs)
	}
}
