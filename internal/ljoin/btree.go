package ljoin

import (
	"math"

	"parajoin/internal/rel"
)

// An in-memory B-tree keyed by tuples, and a TrieIterator over it — the
// LogicBlox-style backend the paper contrasts with Tributary join's sorted
// arrays (§2.2): seek(v) is amortized O(1) on a B-tree versus O(log n) per
// binary search, but *building* the tree on freshly shuffled data costs
// more than sorting, which is the paper's reason to prefer arrays. The
// ablation benchmark measures exactly this trade-off.

const btreeOrder = 32 // max children per interior node

// btreeNode is one node of the tuple B-tree. Leaves hold tuples; interior
// nodes hold separator tuples and children.
type btreeNode struct {
	tuples   []rel.Tuple
	children []*btreeNode // nil for leaves
}

func (n *btreeNode) leaf() bool { return n.children == nil }

// btree is a B-tree over lexicographically ordered tuples.
type btree struct {
	root  *btreeNode
	size  int
	arity int
}

// newBTree builds a tree by repeated insertion — deliberately, because the
// paper's point is the cost of building index structures on the fly (a bulk
// load would amortize like sorting does).
func newBTree(arity int) *btree {
	return &btree{root: &btreeNode{}, arity: arity}
}

func (t *btree) insert(tp rel.Tuple) {
	r := t.root
	if len(r.tuples) >= 2*btreeOrder-1 {
		newRoot := &btreeNode{children: []*btreeNode{r}}
		newRoot.splitChild(0)
		t.root = newRoot
		r = newRoot
	}
	r.insertNonFull(tp)
	t.size++
}

// splitChild splits the i-th (full) child of n.
func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	mid := btreeOrder - 1
	sep := child.tuples[mid]

	right := &btreeNode{tuples: append([]rel.Tuple(nil), child.tuples[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*btreeNode(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.tuples = child.tuples[:mid]

	n.tuples = append(n.tuples, nil)
	copy(n.tuples[i+1:], n.tuples[i:])
	n.tuples[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *btreeNode) insertNonFull(tp rel.Tuple) {
	i := upperBoundTuple(n.tuples, tp)
	if n.leaf() {
		n.tuples = append(n.tuples, nil)
		copy(n.tuples[i+1:], n.tuples[i:])
		n.tuples[i] = tp
		return
	}
	if len(n.children[i].tuples) >= 2*btreeOrder-1 {
		n.splitChild(i)
		if tp.Compare(n.tuples[i]) > 0 {
			i++
		}
	}
	n.children[i].insertNonFull(tp)
}

// upperBoundTuple returns the number of tuples in s that are ≤ tp... more
// precisely the insertion index: the first position whose tuple compares
// greater than tp.
func upperBoundTuple(s []rel.Tuple, tp rel.Tuple) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid].Compare(tp) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// flatten appends the tree's tuples in order — used by the iterator, which
// walks an explicit cursor stack.
func (n *btreeNode) walk(visit func(rel.Tuple) bool) bool {
	if n.leaf() {
		for _, tp := range n.tuples {
			if !visit(tp) {
				return false
			}
		}
		return true
	}
	for i, c := range n.children {
		if !c.walk(visit) {
			return false
		}
		if i < len(n.tuples) {
			if !visit(n.tuples[i]) {
				return false
			}
		}
	}
	return true
}

// seekGE positions returns the first in-order tuple ≥ key restricted to the
// prefix columns [0,cols), or nil.
func (t *btree) seekGE(key rel.Tuple, cols int) rel.Tuple {
	var best rel.Tuple
	n := t.root
	for n != nil {
		i := lowerBoundPrefix(n.tuples, key, cols)
		if i < len(n.tuples) {
			best = n.tuples[i]
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	return best
}

// lowerBoundPrefix is the first index whose tuple's prefix (first cols
// values) is ≥ key's prefix.
func lowerBoundPrefix(s []rel.Tuple, key rel.Tuple, cols int) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if comparePrefix(s[mid], key, cols) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func comparePrefix(a, b rel.Tuple, cols int) int {
	for i := 0; i < cols; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// btreeTrie adapts a btree to the TrieIterator API. It keeps, per level,
// the prefix chosen so far and the current key, and answers Open/Next/Seek
// with seekGE probes — O(log n) per probe here too (Go has no persistent
// finger cursors without major machinery), so the interesting difference
// against arrayTrie is the build cost, which is what the paper argues
// about.
type btreeTrie struct {
	tree   *btree
	depth  int
	prefix rel.Tuple // prefix[0..depth] = current keys per level
	key    rel.Tuple // search-key scratch shared by every probe
	end    []bool
	seeks  int64
}

// newBTreeTrie indexes the relation's rows (already normalized to the
// variable order) into a B-tree and returns the iterator. The tree holds
// row views into rows.Data.
func newBTreeTrie(rows rel.Rows) *btreeTrie {
	t := newBTree(rows.Arity)
	for i := 0; i < rows.N; i++ {
		t.insert(rows.Row(i))
	}
	return &btreeTrie{
		tree:   t,
		depth:  -1,
		prefix: make(rel.Tuple, rows.Arity),
		key:    make(rel.Tuple, rows.Arity),
		end:    make([]bool, rows.Arity),
	}
}

// probe returns the first tuple whose first d+1 columns are ≥ the current
// prefix at levels 0..d-1 followed by v, or nil.
func (b *btreeTrie) probe(d int, v int64) rel.Tuple {
	copy(b.key, b.prefix[:d])
	b.key[d] = v
	b.seeks++
	return b.tree.seekGE(b.key, d+1)
}

func (b *btreeTrie) Open() {
	d := b.depth + 1
	b.depth = d
	// First key at the new level: smallest tuple extending the prefix.
	got := b.probe(d, math.MinInt64)
	if got == nil || comparePrefix(got, b.prefix, d) != 0 {
		b.end[d] = true
		return
	}
	b.end[d] = false
	b.prefix[d] = got[d]
}

func (b *btreeTrie) Up() { b.depth-- }

func (b *btreeTrie) Next() {
	d := b.depth
	if b.end[d] {
		return
	}
	b.SeekGE(b.prefix[d] + 1)
}

func (b *btreeTrie) SeekGE(v int64) {
	d := b.depth
	if b.end[d] || b.prefix[d] >= v {
		return
	}
	got := b.probe(d, v)
	if got == nil || comparePrefix(got, b.prefix, d) != 0 {
		b.end[d] = true
		return
	}
	b.prefix[d] = got[d]
}

func (b *btreeTrie) Key() int64   { return b.prefix[b.depth] }
func (b *btreeTrie) AtEnd() bool  { return b.end[b.depth] }
func (b *btreeTrie) Seeks() int64 { return b.seeks }
