// Package stats computes the relation statistics that drive parajoin's two
// optimizers: cardinalities |R| feed the share optimizer (the HyperCube
// configuration of Section 4 of the paper), and distinct/prefix-distinct
// counts V(R, x) and V(R, prefix) feed the Tributary-join variable-order
// cost model (Section 5).
package stats

import "parajoin/internal/rel"

// Distinct returns the number of distinct values in column col of r.
func Distinct(r *rel.Relation, col int) int {
	seen := make(map[int64]struct{}, len(r.Tuples))
	for _, t := range r.Tuples {
		seen[t[col]] = struct{}{}
	}
	return len(seen)
}

// DistinctTuples returns the number of distinct projections of r onto cols.
// This is V(R, p) for the prefix p = cols of the paper's cost model.
func DistinctTuples(r *rel.Relation, cols []int) int {
	if len(cols) == 0 {
		// The empty prefix has exactly one value (the empty tuple) whenever
		// the relation is non-empty.
		if len(r.Tuples) == 0 {
			return 0
		}
		return 1
	}
	return countDistinct(project(r.Tuples, cols), len(cols))[len(cols)-1]
}

// DistinctRows is DistinctTuples for a relation stored as a width-w
// strided array (row i is data[i*w:(i+1)*w]); w must be positive. The
// projection is built in scratch's storage, grown when it is too small;
// the storage is returned for the caller's next call.
func DistinctRows(data []int64, w int, cols []int, scratch []int64) (int, []int64) {
	if len(cols) == 0 {
		if len(data) == 0 {
			return 0, scratch
		}
		return 1, scratch
	}
	proj := scratch[:0]
	for i := 0; i < len(data); i += w {
		for _, c := range cols {
			proj = append(proj, data[i+c])
		}
	}
	return countDistinct(proj, len(cols))[len(cols)-1], proj
}

// PrefixDistinct returns, for every prefix length k = 1..len(cols), the
// number of distinct projections of r onto cols[:k]. A single sort of the
// projection onto cols computes all of them.
func PrefixDistinct(r *rel.Relation, cols []int) []int {
	if len(cols) == 0 {
		return []int{}
	}
	return countDistinct(project(r.Tuples, cols), len(cols))
}

// project lays the projection of tuples onto cols out as a strided array
// of width len(cols).
func project(tuples []rel.Tuple, cols []int) []int64 {
	proj := make([]int64, 0, len(tuples)*len(cols))
	for _, t := range tuples {
		for _, c := range cols {
			proj = append(proj, t[c])
		}
	}
	return proj
}

// countDistinct sorts the rows of a width-w strided array in place and
// returns, for k = 1..w, the number of distinct length-k prefixes among
// them. In sorted order equal prefixes are adjacent, so a row starts a new
// length-k prefix exactly when it differs from its predecessor within the
// first k columns.
func countDistinct(rows []int64, w int) []int {
	out := make([]int, w)
	if len(rows) == 0 {
		return out
	}
	rel.SortFlat(rows, w)
	// firstDiff[c] counts rows whose first difference from the previous
	// row is column c; the first row differs everywhere.
	firstDiff := make([]int, w+1)
	firstDiff[0]++
	for i := w; i < len(rows); i += w {
		c := 0
		for c < w && rows[i+c] == rows[i-w+c] {
			c++
		}
		firstDiff[c]++
	}
	n := 0
	for k := range out {
		n += firstDiff[k]
		out[k] = n
	}
	return out
}

// RelationStats caches the statistics of one relation that the optimizers
// ask for repeatedly: cardinality and per-column distinct counts. Prefix
// counts depend on the candidate variable order, so they are computed on
// demand via DistinctTuples.
type RelationStats struct {
	Name        string
	Cardinality int
	// ColumnDistinct[i] is the number of distinct values in column i.
	ColumnDistinct []int

	rel *rel.Relation
}

// Collect scans r once and returns its statistics.
func Collect(r *rel.Relation) *RelationStats {
	s := &RelationStats{
		Name:           r.Name,
		Cardinality:    len(r.Tuples),
		ColumnDistinct: make([]int, r.Arity()),
		rel:            r,
	}
	sets := make([]map[int64]struct{}, r.Arity())
	for i := range sets {
		sets[i] = make(map[int64]struct{})
	}
	for _, t := range r.Tuples {
		for i, v := range t {
			sets[i][v] = struct{}{}
		}
	}
	for i := range sets {
		s.ColumnDistinct[i] = len(sets[i])
	}
	return s
}

// Precomputed builds RelationStats from persisted numbers, without the
// relation data — the form a partition catalog's manifest can reconstruct.
// Cardinality and per-column distinct counts are exact; Prefix falls back
// to an independence estimate, so only consumers that never ask for prefix
// counts (the share optimizer) should plan against precomputed statistics.
func Precomputed(name string, cardinality int, columnDistinct []int) *RelationStats {
	return &RelationStats{
		Name:           name,
		Cardinality:    cardinality,
		ColumnDistinct: append([]int(nil), columnDistinct...),
	}
}

// Prefix returns V(R, cols): the number of distinct projections onto cols.
// Precomputed statistics carry no data, so for them the count is estimated
// as min(|R|, Π V(R, col)) — exact for single columns, an independence
// upper bound beyond that.
func (s *RelationStats) Prefix(cols []int) int {
	if s.rel == nil {
		est := 1
		for _, c := range cols {
			d := 1
			if c >= 0 && c < len(s.ColumnDistinct) {
				d = s.ColumnDistinct[c]
			}
			if d <= 0 {
				d = 1
			}
			if est > s.Cardinality/d { // est*d would overflow past |R| anyway
				return s.Cardinality
			}
			est *= d
		}
		if est > s.Cardinality {
			return s.Cardinality
		}
		return est
	}
	return DistinctTuples(s.rel, cols)
}

// Catalog maps relation names to their statistics. The planner builds one
// per database and hands it to the share and variable-order optimizers.
type Catalog struct {
	byName map[string]*RelationStats
}

// NewCatalog collects statistics for every relation given.
func NewCatalog(relations ...*rel.Relation) *Catalog {
	c := &Catalog{byName: make(map[string]*RelationStats, len(relations))}
	for _, r := range relations {
		c.byName[r.Name] = Collect(r)
	}
	return c
}

// Add collects and registers statistics for r, replacing any previous entry
// under the same name.
func (c *Catalog) Add(r *rel.Relation) {
	c.byName[r.Name] = Collect(r)
}

// AddStats registers already-computed statistics (see Precomputed),
// replacing any previous entry under the same name.
func (c *Catalog) AddStats(s *RelationStats) {
	c.byName[s.Name] = s
}

// Get returns the statistics for the named relation, or nil when unknown.
func (c *Catalog) Get(name string) *RelationStats {
	return c.byName[name]
}

// Cardinality returns |R| for the named relation, or 0 when unknown.
func (c *Catalog) Cardinality(name string) int {
	if s := c.byName[name]; s != nil {
		return s.Cardinality
	}
	return 0
}
