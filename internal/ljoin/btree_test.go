package ljoin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parajoin/internal/core"
	"parajoin/internal/rel"
)

func TestBTreeInsertOrdered(t *testing.T) {
	bt := newBTree(2)
	rng := rand.New(rand.NewSource(70))
	want := rel.New("W", "a", "b")
	for i := 0; i < 3000; i++ {
		tp := rel.Tuple{rng.Int63n(200), rng.Int63n(200)}
		bt.insert(tp)
		want.Append(tp)
	}
	want.Sort()
	if bt.size != want.Cardinality() {
		t.Fatalf("size = %d, want %d", bt.size, want.Cardinality())
	}
	var got []rel.Tuple
	bt.root.walk(func(tp rel.Tuple) bool {
		got = append(got, tp)
		return true
	})
	if len(got) != want.Cardinality() {
		t.Fatalf("walk visited %d tuples, want %d", len(got), want.Cardinality())
	}
	for i := range got {
		if !got[i].Equal(want.Tuples[i]) {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want.Tuples[i])
		}
	}
}

func TestBTreeSeekGE(t *testing.T) {
	bt := newBTree(1)
	for _, v := range []int64{2, 5, 5, 9, 14} {
		bt.insert(rel.Tuple{v})
	}
	cases := []struct {
		key  int64
		want int64 // -1 = nil
	}{{0, 2}, {2, 2}, {3, 5}, {5, 5}, {6, 9}, {10, 14}, {15, -1}}
	for _, c := range cases {
		got := bt.seekGE(rel.Tuple{c.key}, 1)
		switch {
		case c.want == -1 && got != nil:
			t.Errorf("seekGE(%d) = %v, want nil", c.key, got)
		case c.want != -1 && (got == nil || got[0] != c.want):
			t.Errorf("seekGE(%d) = %v, want %d", c.key, got, c.want)
		}
	}
}

// The B-tree trie must walk exactly the same keys as the array trie.
func TestBTreeTrieMatchesArrayTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	r := rel.New("R", "a", "b")
	for i := 0; i < 800; i++ {
		r.AppendRow(rng.Int63n(30), rng.Int63n(30))
	}
	r.Dedup()
	arr := newArrayTrie(flatRows(r).Data, 2, SeekBinary)
	bt := newBTreeTrie(flatRows(r))

	// Walk level 0 keys, descending into every subtree, on both iterators.
	var walkBoth func(depth int)
	walkBoth = func(depth int) {
		arr.Open()
		bt.Open()
		for {
			ae, be := arr.AtEnd(), bt.AtEnd()
			if ae != be {
				t.Fatalf("depth %d: array AtEnd=%v btree AtEnd=%v", depth, ae, be)
			}
			if ae {
				break
			}
			if arr.Key() != bt.Key() {
				t.Fatalf("depth %d: array key %d, btree key %d", depth, arr.Key(), bt.Key())
			}
			if depth == 0 {
				walkBoth(depth + 1)
			}
			arr.Next()
			bt.Next()
		}
		arr.Up()
		bt.Up()
	}
	walkBoth(0)
}

func TestBTreeTrieSeek(t *testing.T) {
	r := rel.New("R", "a")
	for _, v := range []int64{1, 3, 4, 5, 6, 7, 8, 9, 11} {
		r.AppendRow(v)
	}
	bt := newBTreeTrie(flatRows(r))
	bt.Open()
	bt.SeekGE(5)
	if bt.AtEnd() || bt.Key() != 5 {
		t.Fatalf("SeekGE(5): end=%v key=%d", bt.AtEnd(), bt.Key())
	}
	bt.SeekGE(10)
	if bt.AtEnd() || bt.Key() != 11 {
		t.Fatalf("SeekGE(10): end=%v key=%d", bt.AtEnd(), bt.Key())
	}
	bt.SeekGE(12)
	if !bt.AtEnd() {
		t.Fatal("SeekGE(12) should reach the end")
	}
}

func TestTributaryBTreeBackendMatchesNaive(t *testing.T) {
	q := triangleQuery()
	rels := map[string]*rel.Relation{
		"R": randGraph("R", 300, 25, 72),
		"S": randGraph("S", 300, 25, 73),
		"T": randGraph("T", 300, 25, 74),
	}
	want, _ := NaiveEvaluate(q, rels)
	got, st, err := Evaluate(q, rels, []core.Var{"x", "y", "z"}, SeekBTree)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("B-tree backend: %d tuples, naive %d", got.Cardinality(), want.Cardinality())
	}
	if st.Seeks == 0 {
		t.Error("B-tree backend should count seeks")
	}
}

// Property: all three backends agree on random path queries.
func TestBackendsAgreeProperty(t *testing.T) {
	q := core.MustQuery("Path", nil, []core.Atom{
		core.NewAtom("R", core.V("x"), core.V("y")),
		core.NewAtom("S", core.V("y"), core.V("z")),
	})
	f := func(seedR, seedS int16) bool {
		rels := map[string]*rel.Relation{
			"R": randGraph("R", 80, 9, int64(seedR)),
			"S": randGraph("S", 80, 9, int64(seedS)),
		}
		ord := []core.Var{"y", "x", "z"}
		a, _, err1 := Evaluate(q, rels, ord, SeekBinary)
		b, _, err2 := Evaluate(q, rels, ord, SeekGalloping)
		c, _, err3 := Evaluate(q, rels, ord, SeekBTree)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return a.Equal(b) && b.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
