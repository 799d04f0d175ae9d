package ljoin

// leapfrog intersects the current level of several trie iterators: it
// enumerates, in increasing order, the values present in all of them. This
// is the unary "leapfrog join" the multiway Tributary join is built from.
type leapfrog struct {
	iters []TrieIterator
	p     int // index of the iterator with the smallest key
	atEnd bool
}

// init positions the leapfrog at the first common value (or at the end).
// Every iterator must already be Open()ed at the level being joined.
func (l *leapfrog) init() {
	l.atEnd = false
	for _, it := range l.iters {
		if it.AtEnd() {
			l.atEnd = true
			return
		}
	}
	// Order the iterators by key. There are at most a handful, so an
	// insertion sort — stable, and allocation-free unlike sort.Slice —
	// is the right tool.
	its := l.iters
	for i := 1; i < len(its); i++ {
		for j := i; j > 0 && its[j].Key() < its[j-1].Key(); j-- {
			its[j], its[j-1] = its[j-1], its[j]
		}
	}
	l.p = 0
	l.search()
}

// search advances iterators round-robin until all agree on one key. On
// entry, iterator p-1 (mod k) holds the current maximum.
func (l *leapfrog) search() {
	k := len(l.iters)
	max := l.iters[(l.p+k-1)%k].Key()
	for {
		it := l.iters[l.p]
		if it.Key() == max {
			return // all k iterators agree
		}
		it.SeekGE(max)
		if it.AtEnd() {
			l.atEnd = true
			return
		}
		max = it.Key()
		l.p = (l.p + 1) % k
	}
}

// key returns the common value. Valid only when !atEnd.
func (l *leapfrog) key() int64 { return l.iters[l.p].Key() }

// next advances past the current common value to the following one.
func (l *leapfrog) next() {
	it := l.iters[l.p]
	it.Next()
	if it.AtEnd() {
		l.atEnd = true
		return
	}
	l.p = (l.p + 1) % len(l.iters)
	l.search()
}

// seek advances to the least common value ≥ v.
func (l *leapfrog) seek(v int64) {
	it := l.iters[l.p]
	it.SeekGE(v)
	if it.AtEnd() {
		l.atEnd = true
		return
	}
	l.p = (l.p + 1) % len(l.iters)
	l.search()
}
